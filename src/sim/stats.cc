#include "stats.hh"

#include <algorithm>

#include "guard/sim_error.hh"
#include "snap/io.hh"
#include "util/bitutil.hh"
#include "util/logging.hh"

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
    // high bits. This table keeps the low bits for two reasons. The
    // high-bit hash buys nothing here: it measured 0.87-1.12x this one's
    // suite sweep wall (6 same-host pairs, median 1.00), likely because
    // the tables (one per SM when it was measured) reach several MB,
    // where scattered probes miss the host cache that the clustered runs
    // stream through. And save() writes the slot layout into snapshots,
    // so a new hash would change every snapshot taken with locality
    // stats in flight.
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
    double unloaded = 0.0;
    switch (op.deepest) {
      case ServiceLevel::L1:
        unloaded = config_.l1HitLatency;
        break;
      case ServiceLevel::L2:
        unloaded = config_.unloadedL2Latency();
        break;
      case ServiceLevel::Dram:
        unloaded = config_.unloadedDramLatency();
        break;
    }
    const double wasted_mem =
        std::max(0.0, turnaround - unloaded - rsrv_prev - rsrv_cur);

    agg.turnSum += turnaround;
    agg.unloaded += unloaded;
    agg.rsrvPrev += rsrv_prev;
    agg.rsrvCur += rsrv_cur;
    agg.mem += wasted_mem;

    // Figs 6 and 7: per-pc breakdown keyed by the request count. The fast
    // path indexes a dense per-kernel array; pcs past the dense limit
    // spill into the map.
    PcBucket *bucket;
    const auto pc_idx = static_cast<uint32_t>(op.pc);
    if (pc_idx < kDensePcLimit) {
        if (kernel_id >= pcDense_.size())
            pcDense_.resize(kernel_id + 1);
        auto &slots = pcDense_[kernel_id];
        if (pc_idx >= slots.size())
            slots.resize(pc_idx + 1);
        PcSlot &slot = slots[pc_idx];
        slot.used = true;
        slot.nonDet = nd;
        bucket = &slot.byReqs[nreq];
    } else {
        const uint64_t key = (uint64_t{kernel_id} << 32) | pc_idx;
        PcAgg &pc = pcAggs_[key];
        pc.nonDet = nd;
        bucket = &pc.byReqs[nreq];
    }
    ++bucket->cnt;
    bucket->turn += turnaround;
    bucket->gapL1d += rsrv_cur;

    // Gap at icnt-L2: extra queueing between L1 acceptance and the start of
    // L2 service, accumulated per request as each completed (see
    // Sm::completeRequest) and averaged over the op's missed requests.
    // The mean need not be an integer, so this is the one sum whose
    // rounding depends on the order ops complete in.
    double gap_icnt_l2 = op.gapIcntL2Sum;
    if (op.missedReqs)
        gap_icnt_l2 /= op.missedReqs;
    bucket->gapIcntL2 += gap_icnt_l2;

    // Gap at L2-icnt: spread between the first and the last returned data.
    bucket->gapL2Icnt +=
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

SimStats::PcHists
SimStats::pcHists(uint32_t kernel, uint32_t pc_idx, bool non_det)
{
    const std::string prefix = "pc." + kernelNames_[kernel] + "#" +
                               std::to_string(pc_idx) + ".";
    set_.set(prefix + "nondet", non_det ? 1.0 : 0.0);
    return {&set_.hist(prefix + "turn_cnt"), &set_.hist(prefix + "turn_sum"),
            &set_.hist(prefix + "gap_l1d"),
            &set_.hist(prefix + "gap_icnt_l2"),
            &set_.hist(prefix + "gap_l2icnt")};
}

void
SimStats::addPcBucket(const PcHists &hists, uint32_t nreq,
                      const PcBucket &bucket)
{
    hists.cnt->add(nreq, static_cast<double>(bucket.cnt));
    hists.turn->add(nreq, bucket.turn);
    hists.gapL1d->add(nreq, bucket.gapL1d);
    hists.gapIcntL2->add(nreq, bucket.gapIcntL2);
    hists.gapL2Icnt->add(nreq, bucket.gapL2Icnt);
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
            const PcHists hists = pcHists(kernel, pc_idx, slot.nonDet);
            for (uint32_t nreq = 0; nreq <= WarpMemOp::kMaxRequests; ++nreq)
                if (slot.byReqs[nreq].cnt != 0)
                    addPcBucket(hists, nreq, slot.byReqs[nreq]);
        }
    }
    pcDense_.clear();
    for (const auto &[key, pc] : pcAggs_) {
        const auto kernel = static_cast<uint32_t>(key >> 32);
        const auto pc_idx = static_cast<uint32_t>(key);
        const PcHists hists = pcHists(kernel, pc_idx, pc.nonDet);
        for (const auto &[nreq, bucket] : pc.byReqs)
            addPcBucket(hists, nreq, bucket);
    }
    pcAggs_.clear();

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

namespace
{

/** Bytes an occupied block slot takes in a snapshot, at the least. */
constexpr uint64_t kMinBlockSlotBytes = 6 * sizeof(uint64_t);

void
saveCtas(const std::vector<uint32_t> &ctas, snap::SnapWriter &out)
{
    // Exact append order, not sorted: insertCta scans from the back, so
    // the restored vectors must be bit-identical for the table to evolve
    // identically after the restore.
    out.u64(ctas.size());
    for (uint32_t cta : ctas)
        out.u32(cta);
}

void
loadCtas(std::vector<uint32_t> &ctas, snap::SnapReader &in)
{
    const uint64_t n = in.u64();
    if (n > in.remaining() / sizeof(uint32_t))
        gcl_sim_error(SimError::Kind::Snapshot, "stats", 0,
                      "snapshot CTA list of ", n,
                      " entries overruns its section");
    ctas.resize(n);
    for (uint32_t &cta : ctas)
        cta = in.u32();
}

} // namespace

void
SimStats::save(snap::SnapWriter &out) const
{
    gcl_sim_check(!finalized_, "stats", 0,
                  "checkpoint after finalize()");
    out.str(set_.serialize());
    out.u64(l2Queries_.size());
    for (uint64_t q : l2Queries_)
        out.u64(q);
    for (uint64_t h : l2Hits_)
        out.u64(h);
    out.u64(kernelNames_.size());
    for (const std::string &name : kernelNames_)
        out.str(name);

    out.u64(hot.warpInsts);
    out.u64(hot.threadInsts);
    out.u64(hot.smCycles);
    out.u64(hot.reqsIssued);
    out.u64(hot.reqsCompleted);
    out.u64(hot.busySp);
    out.u64(hot.busySfu);
    out.u64(hot.busyLdst);
    for (int i = 0; i < 6; ++i)
        out.u64(hot.l1Outcome[i]);
    for (int i = 0; i < 2; ++i) {
        out.u64(hot.l1Access[i]);
        out.u64(hot.l1Miss[i]);
        out.u64(hot.l2Access[i]);
        out.u64(hot.l2Miss[i]);
    }
    out.u64(hot.partStalls);
    out.u64(hot.sloadWarps);
    out.u64(hot.sstoreWarps);
    out.u64(hot.gstoreWarps);
    out.u64(hot.atomWarps);
    out.u64(hot.l2Atomics);
    out.u64(hot.l2WriteAbsorbed);

    for (int nd = 0; nd < 2; ++nd) {
        const ClassAgg &agg = cls_[nd];
        out.u64(agg.warps);
        out.u64(agg.reqs);
        out.u64(agg.active);
        out.f64(agg.turnSum);
        out.f64(agg.unloaded);
        out.f64(agg.rsrvPrev);
        out.f64(agg.rsrvCur);
        out.f64(agg.mem);
    }

    // Dense per-pc slots: used slots only, with their nonzero buckets.
    out.u64(pcDense_.size());
    for (const auto &slots : pcDense_) {
        out.u64(slots.size());
        uint64_t used = 0;
        for (const PcSlot &slot : slots)
            used += slot.used ? 1 : 0;
        out.u64(used);
        for (uint32_t pc = 0; pc < slots.size(); ++pc) {
            const PcSlot &slot = slots[pc];
            if (!slot.used)
                continue;
            out.u32(pc);
            out.u8(slot.nonDet ? 1 : 0);
            uint32_t nonzero = 0;
            for (uint32_t n = 0; n <= WarpMemOp::kMaxRequests; ++n)
                nonzero += slot.byReqs[n].cnt != 0 ? 1 : 0;
            out.u32(nonzero);
            for (uint32_t n = 0; n <= WarpMemOp::kMaxRequests; ++n) {
                const PcBucket &bucket = slot.byReqs[n];
                if (bucket.cnt == 0)
                    continue;
                out.u32(n);
                out.u64(bucket.cnt);
                out.f64(bucket.turn);
                out.f64(bucket.gapL1d);
                out.f64(bucket.gapIcntL2);
                out.f64(bucket.gapL2Icnt);
            }
        }
    }

    // Spilled per-pc aggregates, in sorted-key order.
    std::vector<uint64_t> pc_keys;
    pc_keys.reserve(pcAggs_.size());
    for (const auto &[key, agg] : pcAggs_)
        pc_keys.push_back(key);
    std::sort(pc_keys.begin(), pc_keys.end());
    out.u64(pc_keys.size());
    for (uint64_t key : pc_keys) {
        const PcAgg &agg = pcAggs_.at(key);
        out.u64(key);
        out.u8(agg.nonDet ? 1 : 0);
        std::vector<uint32_t> reqs;
        reqs.reserve(agg.byReqs.size());
        for (const auto &[nreq, bucket] : agg.byReqs)
            reqs.push_back(nreq);
        std::sort(reqs.begin(), reqs.end());
        out.u64(reqs.size());
        for (uint32_t nreq : reqs) {
            const PcBucket &bucket = agg.byReqs.at(nreq);
            out.u32(nreq);
            out.u64(bucket.cnt);
            out.f64(bucket.turn);
            out.f64(bucket.gapL1d);
            out.f64(bucket.gapIcntL2);
            out.f64(bucket.gapL2Icnt);
        }
    }

    // Block table: exact capacity and slot layout (the open addressing is
    // history-dependent, so the restored table must match bit for bit),
    // occupied slots in ascending order.
    out.u64(blockTable_.size());
    out.u64(blockCount_);
    for (uint64_t at = 0; at < blockTable_.size(); ++at) {
        const BlockSlot &slot = blockTable_[at];
        if (slot.info.accesses == 0)
            continue;
        out.u64(at);
        out.u64(slot.lineAddr);
        out.u64(slot.info.accesses);
        saveCtas(slot.info.ctas, out);
        saveCtas(slot.info.ctasDet, out);
        saveCtas(slot.info.ctasNondet, out);
    }
}

void
SimStats::load(snap::SnapReader &in)
{
    gcl_sim_check(!finalized_, "stats", 0,
                  "restore after finalize()");
    gcl_sim_check(set_.deserialize(in.str()), "stats", 0,
                  "snapshot stats set does not parse");
    const uint64_t nparts = in.u64();
    gcl_sim_check(nparts == l2Queries_.size(), "stats", 0,
                  "snapshot partition count mismatch");
    for (uint64_t &q : l2Queries_)
        q = in.u64();
    for (uint64_t &h : l2Hits_)
        h = in.u64();
    kernelNames_.resize(in.u64());
    kernelIds_.clear();
    for (uint32_t id = 0; id < kernelNames_.size(); ++id) {
        kernelNames_[id] = in.str();
        kernelIds_.emplace(kernelNames_[id], id);
    }

    hot.warpInsts = in.u64();
    hot.threadInsts = in.u64();
    hot.smCycles = in.u64();
    hot.reqsIssued = in.u64();
    hot.reqsCompleted = in.u64();
    hot.busySp = in.u64();
    hot.busySfu = in.u64();
    hot.busyLdst = in.u64();
    for (int i = 0; i < 6; ++i)
        hot.l1Outcome[i] = in.u64();
    for (int i = 0; i < 2; ++i) {
        hot.l1Access[i] = in.u64();
        hot.l1Miss[i] = in.u64();
        hot.l2Access[i] = in.u64();
        hot.l2Miss[i] = in.u64();
    }
    hot.partStalls = in.u64();
    hot.sloadWarps = in.u64();
    hot.sstoreWarps = in.u64();
    hot.gstoreWarps = in.u64();
    hot.atomWarps = in.u64();
    hot.l2Atomics = in.u64();
    hot.l2WriteAbsorbed = in.u64();

    for (int nd = 0; nd < 2; ++nd) {
        ClassAgg &agg = cls_[nd];
        agg.warps = in.u64();
        agg.reqs = in.u64();
        agg.active = in.u64();
        agg.turnSum = in.f64();
        agg.unloaded = in.f64();
        agg.rsrvPrev = in.f64();
        agg.rsrvCur = in.f64();
        agg.mem = in.f64();
    }

    // gloadDone grows the dense arrays to one per interned kernel and
    // kDensePcLimit pcs at most.
    const uint64_t nkernels = in.u64();
    if (nkernels > kernelNames_.size())
        gcl_sim_error(SimError::Kind::Snapshot, "stats", 0,
                      "snapshot has per-pc slots for ", nkernels,
                      " kernels but names only ", kernelNames_.size());
    pcDense_.assign(nkernels, {});
    for (auto &slots : pcDense_) {
        const uint64_t npcs = in.u64();
        if (npcs > kDensePcLimit)
            gcl_sim_error(SimError::Kind::Snapshot, "stats", 0,
                          "snapshot dense pc table of ", npcs,
                          " slots exceeds ", kDensePcLimit);
        slots.resize(npcs);
        const uint64_t used = in.u64();
        for (uint64_t i = 0; i < used; ++i) {
            const uint32_t pc = in.u32();
            if (pc >= slots.size())
                gcl_sim_error(SimError::Kind::Snapshot, "stats", 0,
                              "snapshot pc slot ", pc, " out of range");
            PcSlot &slot = slots[pc];
            slot.used = true;
            slot.nonDet = in.u8() != 0;
            const uint32_t nonzero = in.u32();
            for (uint32_t b = 0; b < nonzero; ++b) {
                const uint32_t nreq = in.u32();
                if (nreq > WarpMemOp::kMaxRequests)
                    gcl_sim_error(SimError::Kind::Snapshot, "stats", 0,
                                  "snapshot pc bucket ", nreq,
                                  " out of range");
                PcBucket &bucket = slot.byReqs[nreq];
                bucket.cnt = in.u64();
                bucket.turn = in.f64();
                bucket.gapL1d = in.f64();
                bucket.gapIcntL2 = in.f64();
                bucket.gapL2Icnt = in.f64();
            }
        }
    }

    pcAggs_.clear();
    const uint64_t naggs = in.u64();
    for (uint64_t i = 0; i < naggs; ++i) {
        const uint64_t key = in.u64();
        PcAgg &agg = pcAggs_[key];
        agg.nonDet = in.u8() != 0;
        const uint64_t nbuckets = in.u64();
        for (uint64_t b = 0; b < nbuckets; ++b) {
            const uint32_t nreq = in.u32();
            PcBucket &bucket = agg.byReqs[nreq];
            bucket.cnt = in.u64();
            bucket.turn = in.f64();
            bucket.gapL1d = in.f64();
            bucket.gapIcntL2 = in.f64();
            bucket.gapL2Icnt = in.f64();
        }
    }

    // The block table is restored slot for slot, so refuse, before
    // allocating it, any layout blockFor cannot have grown. With a
    // capacity that is not a power of two the mask misses slots, and past
    // the load bound the table may be full: either way a probe can find
    // no free slot and spin forever inside one cycle. A capacity larger
    // than its count grows to, or a count the bytes left cannot hold,
    // would only make the allocation absurd.
    const uint64_t capacity = in.u64();
    const uint64_t count = in.u64();
    if (!isPowerOf2(capacity) || capacity < kInitialBlockSlots)
        gcl_sim_error(SimError::Kind::Snapshot, "stats", 0,
                      "snapshot block table capacity ", capacity,
                      " is not a power of two of at least ",
                      kInitialBlockSlots);
    if (count > blocksHeldBy(capacity))
        gcl_sim_error(SimError::Kind::Snapshot, "stats", 0,
                      "snapshot block table of ", capacity,
                      " slots cannot hold ", count,
                      " blocks under the 70% load bound");
    if (capacity > kInitialBlockSlots && count <= blocksHeldBy(capacity / 2))
        gcl_sim_error(SimError::Kind::Snapshot, "stats", 0,
                      "snapshot block table of ", capacity,
                      " slots is larger than ", count, " blocks grow to");
    if (count > in.remaining() / kMinBlockSlotBytes)
        gcl_sim_error(SimError::Kind::Snapshot, "stats", 0,
                      "snapshot block table of ", count,
                      " blocks overruns its section");
    blockTable_.assign(capacity, BlockSlot{});
    blockCount_ = count;
    uint64_t next = 0;    // save() writes occupied slots in ascending order
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t at = in.u64();
        if (at < next || at >= capacity)
            gcl_sim_error(SimError::Kind::Snapshot, "stats", 0,
                          "snapshot block slot ", at,
                          " out of range or out of order");
        next = at + 1;
        BlockSlot &slot = blockTable_[at];
        slot.lineAddr = in.u64();
        slot.info.accesses = in.u64();
        loadCtas(slot.info.ctas, in);
        loadCtas(slot.info.ctasDet, in);
        loadCtas(slot.info.ctasNondet, in);
    }
}

} // namespace gcl::sim
