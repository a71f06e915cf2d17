#include "crit.hh"

#include <algorithm>
#include <sstream>

namespace gcl::crit
{

const char *
reasonName(StallReason reason)
{
    switch (reason) {
    case StallReason::DataHazard:
        return "data_hazard";
    case StallReason::Barrier:
        return "barrier";
    case StallReason::IbufferEmpty:
        return "ibuffer_empty";
    case StallReason::Pipeline:
        return "pipeline";
    case StallReason::MshrFull:
        return "mshr_full";
    case StallReason::IcntBackpressure:
        return "icnt_backpressure";
    case StallReason::IdleNoCta:
        return "idle";
    }
    return "unknown";
}

const char *
className(unsigned cls)
{
    switch (cls) {
    case 1:
        return "det";
    case 2:
        return "nondet";
    default:
        return "other";
    }
}

const char *
stageName(Stage stage)
{
    switch (stage) {
    case Stage::Accept:
        return "accept";
    case Stage::L1:
        return "l1";
    case Stage::Merge:
        return "merge";
    case Stage::IcntToL2:
        return "icnt_l2";
    case Stage::L2:
        return "l2";
    case Stage::Dram:
        return "dram";
    case Stage::Resp:
        return "resp";
    }
    return "unknown";
}

void
SmCrit::chargePc(StallReason reason, uint64_t pc_key, uint8_t load_class,
                 uint64_t count)
{
    stall[static_cast<unsigned>(reason)] += count;
    if (reason == StallReason::DataHazard)
        dhzByClass[load_class < kNumClasses ? load_class : 0] += count;
    PcCrit &pc = pcs_[pc_key];
    if (load_class)
        pc.loadClass = load_class;
    pc.stallSlots += count;
    pc.stallByReason[static_cast<unsigned>(reason)] += count;
}

void
SmCrit::stage(uint64_t pc_key, Stage stage, Cycle delta)
{
    PcCrit &pc = pcs_[pc_key];
    const unsigned s = static_cast<unsigned>(stage);
    ++pc.stageCnt[s];
    pc.stageSum[s] += static_cast<double>(delta);
    ++pc.stageLog2[s][log2Bucket(delta)];
}

void
SmCrit::opDone(uint64_t pc_key, Cycle turnaround, uint8_t load_class)
{
    PcCrit &pc = pcs_[pc_key];
    if (load_class)
        pc.loadClass = load_class;
    ++pc.turnCnt;
    pc.turnSum += static_cast<double>(turnaround);
    ++pc.turnLog2[log2Bucket(turnaround)];
}

std::string
SmCrit::hangSummary() const
{
    uint64_t total = 0;
    for (unsigned r = 0; r < kNumReasons; ++r)
        total += stall[r];
    if (total == 0)
        return {};

    // Top-3 reasons: count desc, enum order as the deterministic tiebreak.
    std::vector<unsigned> reasons;
    for (unsigned r = 0; r < kNumReasons; ++r)
        if (stall[r])
            reasons.push_back(r);
    std::stable_sort(reasons.begin(), reasons.end(),
                     [&](unsigned a, unsigned b) {
                         return stall[a] > stall[b];
                     });
    if (reasons.size() > 3)
        reasons.resize(3);

    std::ostringstream oss;
    oss << "stalls:";
    for (unsigned r : reasons)
        oss << ' ' << reasonName(static_cast<StallReason>(r)) << ' '
            << (100 * stall[r] + total / 2) / total << '%';
    return oss.str();
}

std::string
CritStats::hangBlocking() const
{
    // Top-3 blocking PCs: slots desc, key asc. Guard must not depend on
    // kernel-name tables, so render as k<kernel>#<pc>.
    std::vector<std::pair<uint64_t, uint64_t>> pcs; // (key, slots)
    for (const auto &[key, pc] : pcs_)
        if (pc.stallSlots)
            pcs.emplace_back(key, pc.stallSlots);
    if (pcs.empty())
        return {};
    std::sort(pcs.begin(), pcs.end(), [](const auto &a, const auto &b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });
    if (pcs.size() > 3)
        pcs.resize(3);
    std::ostringstream oss;
    oss << "blocking:";
    for (const auto &[key, slots] : pcs)
        oss << " k" << (key >> 32) << '#' << (key & 0xffffffffu) << '('
            << slots << ')';
    return oss.str();
}

void
CritStats::finalize(const std::vector<std::string> &kernel_names,
                    StatsSet &set)
{
    if (finalized_)
        return;
    finalized_ = true;

    set.set("crit.issue_width", static_cast<double>(issueWidth_));
    set.set("crit.sms", static_cast<double>(sms_.size()));

    // Per-SM accounting plus the device-wide sums. Every stall reason is
    // emitted even when zero so the schema (and the accounting identity
    // trace_check recomputes) is closed over a fixed key set.
    uint64_t cycles = 0, issued = 0;
    uint64_t stall[kNumReasons] = {};
    uint64_t dhz_by_class[kNumClasses] = {};
    for (size_t i = 0; i < sms_.size(); ++i) {
        const SmCrit &sm = sms_[i];
        const std::string prefix = "crit.sm" + std::to_string(i) + '.';
        set.set(prefix + "cycles", static_cast<double>(sm.cycles));
        set.set(prefix + "issued", static_cast<double>(sm.issued));
        for (unsigned r = 0; r < kNumReasons; ++r) {
            set.set(prefix + "stall." +
                        reasonName(static_cast<StallReason>(r)),
                    static_cast<double>(sm.stall[r]));
            stall[r] += sm.stall[r];
        }
        cycles += sm.cycles;
        issued += sm.issued;
        for (unsigned c = 0; c < kNumClasses; ++c)
            dhz_by_class[c] += sm.dhzByClass[c];
    }

    set.set("crit.cycles", static_cast<double>(cycles));
    set.set("crit.issued", static_cast<double>(issued));
    for (unsigned r = 0; r < kNumReasons; ++r)
        set.set(std::string("crit.stall.") +
                    reasonName(static_cast<StallReason>(r)),
                static_cast<double>(stall[r]));
    for (unsigned c = 0; c < kNumClasses; ++c)
        set.set(std::string("crit.stall.data_hazard.") + className(c),
                static_cast<double>(dhz_by_class[c]));

    // Per-PC attribution. Every key a PC emits is its own, so the table's
    // iteration order does not reach the output.
    for (const auto &[key, pc] : pcs_) {
        const unsigned kernel = static_cast<unsigned>(key >> 32);
        const uint64_t addr = key & 0xffffffffu;
        std::string name = kernel < kernel_names.size()
                               ? kernel_names[kernel]
                               : 'k' + std::to_string(kernel);
        const std::string prefix = "crit.pc." + name + '#' +
                                   std::to_string(addr) + '.';
        set.set(prefix + "class", static_cast<double>(pc.loadClass));
        set.set(prefix + "stall_slots",
                static_cast<double>(pc.stallSlots));
        for (unsigned r = 0; r < kNumReasons; ++r)
            if (pc.stallByReason[r])
                set.set(prefix + "stall." +
                            reasonName(static_cast<StallReason>(r)),
                        static_cast<double>(pc.stallByReason[r]));
        if (pc.turnCnt) {
            set.set(prefix + "turn_cnt", static_cast<double>(pc.turnCnt));
            set.set(prefix + "turn_sum", pc.turnSum);
            Histogram &turn = set.hist(prefix + "turn_log2");
            for (unsigned b = 0; b < kLog2Buckets; ++b)
                if (pc.turnLog2[b])
                    turn.add(static_cast<int64_t>(b),
                             static_cast<double>(pc.turnLog2[b]));
        }
        for (unsigned s = 0; s < kNumStages; ++s) {
            if (!pc.stageCnt[s])
                continue;
            const std::string stage =
                prefix + "lat." + stageName(static_cast<Stage>(s));
            set.set(stage + ".cnt", static_cast<double>(pc.stageCnt[s]));
            set.set(stage + ".sum", pc.stageSum[s]);
            Histogram &hist = set.hist(stage);
            for (unsigned b = 0; b < kLog2Buckets; ++b)
                if (pc.stageLog2[s][b])
                    hist.add(static_cast<int64_t>(b),
                             static_cast<double>(pc.stageLog2[s][b]));
        }
    }
}

} // namespace gcl::crit
