#include "report.hh"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "util/table.hh"

namespace gcl::crit
{

namespace
{

constexpr const char *kPcPrefix = "crit.pc.";
constexpr size_t kPcPrefixLen = 8;

/** Per-PC record rebuilt from the exported key schema. */
struct PcRecord {
    std::string kernel;
    uint64_t pc = 0;
    unsigned cls = 0;
    double stallSlots = 0;
    double stallByReason[kNumReasons] = {};
    double turnCnt = 0;
    double turnSum = 0;
    double stageSum[kNumStages] = {};
};

/**
 * Rebuild the per-PC table from crit.pc.<kernel>#<pc>.<field> scalars.
 * Keyed by (kernel, pc) in an ordered map so iteration is deterministic.
 */
std::map<std::pair<std::string, uint64_t>, PcRecord>
collectPcs(const StatsSet &stats)
{
    std::map<std::pair<std::string, uint64_t>, PcRecord> pcs;
    for (const auto &[key, value] : stats.scalars()) {
        if (key.compare(0, kPcPrefixLen, kPcPrefix) != 0)
            continue;
        const size_t hash = key.find('#', kPcPrefixLen);
        if (hash == std::string::npos)
            continue;
        const size_t dot = key.find('.', hash);
        if (dot == std::string::npos)
            continue;
        const std::string kernel =
            key.substr(kPcPrefixLen, hash - kPcPrefixLen);
        const uint64_t pc =
            std::stoull(key.substr(hash + 1, dot - hash - 1));
        const std::string field = key.substr(dot + 1);

        PcRecord &rec = pcs[{kernel, pc}];
        rec.kernel = kernel;
        rec.pc = pc;
        if (field == "class") {
            rec.cls = static_cast<unsigned>(value);
        } else if (field == "stall_slots") {
            rec.stallSlots = value;
        } else if (field == "turn_cnt") {
            rec.turnCnt = value;
        } else if (field == "turn_sum") {
            rec.turnSum = value;
        } else if (field.compare(0, 6, "stall.") == 0) {
            for (unsigned r = 0; r < kNumReasons; ++r)
                if (field.compare(6, std::string::npos,
                                  reasonName(static_cast<StallReason>(
                                      r))) == 0)
                    rec.stallByReason[r] = value;
        } else if (field.compare(0, 4, "lat.") == 0 &&
                   field.size() > 8 &&
                   field.compare(field.size() - 4, 4, ".sum") == 0) {
            const std::string stage =
                field.substr(4, field.size() - 8);
            for (unsigned s = 0; s < kNumStages; ++s)
                if (stage == stageName(static_cast<Stage>(s)))
                    rec.stageSum[s] = value;
        }
    }
    return pcs;
}

/** p99 turnaround from the log2 histogram: upper edge of the p99 bucket. */
double
p99FromLog2(const Histogram &hist)
{
    const double total = hist.totalWeight();
    if (total <= 0)
        return 0;
    double cum = 0;
    for (const auto &[bucket, weight] : hist.buckets()) {
        cum += weight;
        if (cum >= 0.99 * total)
            return bucket <= 0
                       ? 0.0
                       : static_cast<double>(
                             (uint64_t{1} << static_cast<unsigned>(
                                  bucket)) -
                             1);
    }
    return 0;
}

std::string
fmtCount(double v)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(0) << v;
    return oss.str();
}

std::string
fmtPct(double num, double den)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(1)
        << (den > 0 ? 100.0 * num / den : 0.0) << '%';
    return oss.str();
}

} // namespace

CpiStack
cpiStack(const StatsSet &stats)
{
    CpiStack stack;
    if (!stats.has("crit.issue_width"))
        return stack;
    stack.valid = true;
    stack.issueWidth = stats.get("crit.issue_width");
    stack.slots = stats.get("crit.cycles") * stack.issueWidth;
    stack.issued = stats.get("crit.issued");
    for (unsigned r = 0; r < kNumReasons; ++r)
        stack.stall[r] = stats.get(
            std::string("crit.stall.") +
            reasonName(static_cast<StallReason>(r)));
    for (unsigned c = 0; c < kNumClasses; ++c)
        stack.dhzByClass[c] = stats.get(
            std::string("crit.stall.data_hazard.") + className(c));
    return stack;
}

std::vector<CritLoad>
topLoads(const StatsSet &stats, size_t top_n)
{
    std::vector<CritLoad> loads;
    for (const auto &[key, rec] : collectPcs(stats)) {
        if (rec.cls == 0)
            continue; // producer that is not a global load
        CritLoad load;
        load.kernel = rec.kernel;
        load.pc = rec.pc;
        load.cls = rec.cls;
        load.stallSlots = rec.stallSlots;
        load.turnCnt = rec.turnCnt;
        load.turnMean = rec.turnCnt > 0 ? rec.turnSum / rec.turnCnt : 0;
        load.turnP99 = p99FromLog2(stats.histOrEmpty(
            kPcPrefix + rec.kernel + '#' + std::to_string(rec.pc) +
            ".turn_log2"));
        for (unsigned s = 0; s < kNumStages; ++s)
            load.stageSum[s] = rec.stageSum[s];
        loads.push_back(std::move(load));
    }
    std::sort(loads.begin(), loads.end(),
              [](const CritLoad &a, const CritLoad &b) {
                  if (a.stallSlots != b.stallSlots)
                      return a.stallSlots > b.stallSlots;
                  const double asum = a.turnMean * a.turnCnt;
                  const double bsum = b.turnMean * b.turnCnt;
                  if (asum != bsum)
                      return asum > bsum;
                  if (a.kernel != b.kernel)
                      return a.kernel < b.kernel;
                  return a.pc < b.pc;
              });
    if (loads.size() > top_n)
        loads.resize(top_n);
    return loads;
}

void
renderText(std::ostream &out, const std::string &app,
           const StatsSet &stats, size_t top_n)
{
    const CpiStack stack = cpiStack(stats);
    out << "== " << app << " ==\n";
    if (!stack.valid) {
        out << "  (no crit section; run with --crit)\n";
        return;
    }

    out << "  issue slots " << fmtCount(stack.slots) << " (width "
        << fmtCount(stack.issueWidth) << ", ipc/sm "
        << std::fixed << std::setprecision(3)
        << (stack.slots > 0
                ? stack.issued / (stack.slots / stack.issueWidth)
                : 0.0)
        << ")\n";
    out << "  cpi stack:\n";
    out << "    issued            " << std::setw(12)
        << fmtCount(stack.issued) << "  " << std::setw(6)
        << fmtPct(stack.issued, stack.slots) << '\n';
    for (unsigned r = 0; r < kNumReasons; ++r) {
        out << "    " << std::left << std::setw(18)
            << reasonName(static_cast<StallReason>(r)) << std::right
            << std::setw(12) << fmtCount(stack.stall[r]) << "  "
            << std::setw(6) << fmtPct(stack.stall[r], stack.slots);
        if (static_cast<StallReason>(r) == StallReason::DataHazard)
            out << "  (det " << fmtPct(stack.dhzByClass[1], stack.slots)
                << ", nondet "
                << fmtPct(stack.dhzByClass[2], stack.slots) << ", other "
                << fmtPct(stack.dhzByClass[0], stack.slots) << ')';
        out << '\n';
    }

    const std::vector<CritLoad> loads = topLoads(stats, top_n);
    if (loads.empty()) {
        out << "  no attributed loads\n";
        return;
    }
    out << "  top critical loads (by issue-stall slots charged):\n";
    out << "    rank  load                    class   stall slots   "
           "share   loads    mean lat     p99 lat  dominant stages\n";
    size_t rank = 0;
    for (const CritLoad &load : loads) {
        // Top-2 stages by time: sum desc, stage order as tiebreak.
        double total_stage = 0;
        for (unsigned s = 0; s < kNumStages; ++s)
            total_stage += load.stageSum[s];
        std::vector<unsigned> order;
        for (unsigned s = 0; s < kNumStages; ++s)
            if (load.stageSum[s] > 0)
                order.push_back(s);
        std::stable_sort(order.begin(), order.end(),
                         [&](unsigned a, unsigned b) {
                             return load.stageSum[a] > load.stageSum[b];
                         });
        if (order.size() > 2)
            order.resize(2);

        out << "    " << std::setw(4) << ++rank << "  " << std::left
            << std::setw(22)
            << (load.kernel + '#' + std::to_string(load.pc))
            << std::right << "  " << std::left << std::setw(6)
            << className(load.cls) << std::right << std::setw(12)
            << fmtCount(load.stallSlots) << "  " << std::setw(6)
            << fmtPct(load.stallSlots, stack.slots) << std::setw(8)
            << fmtCount(load.turnCnt) << std::setw(12) << std::fixed
            << std::setprecision(1) << load.turnMean << std::setw(12)
            << fmtCount(load.turnP99) << "  ";
        for (size_t i = 0; i < order.size(); ++i)
            out << (i ? " " : "")
                << stageName(static_cast<Stage>(order[i])) << ' '
                << fmtPct(load.stageSum[order[i]], total_stage);
        out << '\n';
    }
}

void
renderCsv(std::ostream &out, const std::string &app,
          const StatsSet &stats, size_t top_n, bool header)
{
    if (header) {
        out << "app,kernel,pc,class,stall_slots,stall_share,loads,"
               "mean_turnaround,p99_turnaround";
        for (unsigned s = 0; s < kNumStages; ++s)
            out << ',' << stageName(static_cast<Stage>(s)) << "_sum";
        out << "\r\n";
    }
    const CpiStack stack = cpiStack(stats);
    for (const CritLoad &load : topLoads(stats, top_n)) {
        out << csvField(app) << ',' << csvField(load.kernel) << ','
            << load.pc << ',' << className(load.cls) << ','
            << fmtCount(load.stallSlots) << ',' << std::fixed
            << std::setprecision(6)
            << (stack.slots > 0 ? load.stallSlots / stack.slots : 0.0)
            << ',' << fmtCount(load.turnCnt) << ',' << std::fixed
            << std::setprecision(3) << load.turnMean << ','
            << fmtCount(load.turnP99);
        for (unsigned s = 0; s < kNumStages; ++s)
            out << ',' << fmtCount(load.stageSum[s]);
        out << "\r\n";
    }
}

void
appendCollapsed(std::ostream &out, const std::string &app,
                const StatsSet &stats)
{
    const CpiStack stack = cpiStack(stats);
    if (!stack.valid)
        return;
    if (stack.issued > 0)
        out << app << ";issued " << fmtCount(stack.issued) << '\n';

    const auto pcs = collectPcs(stats);
    for (unsigned r = 0; r < kNumReasons; ++r) {
        const char *reason = reasonName(static_cast<StallReason>(r));
        double attributed = 0;
        for (const auto &[key, rec] : pcs) {
            if (rec.stallByReason[r] <= 0)
                continue;
            attributed += rec.stallByReason[r];
            out << app << ';' << reason << ';' << className(rec.cls)
                << ';' << rec.kernel << '#' << rec.pc << ' '
                << fmtCount(rec.stallByReason[r]) << '\n';
        }
        const double rest = stack.stall[r] - attributed;
        if (rest > 0)
            out << app << ';' << reason << ' ' << fmtCount(rest) << '\n';
    }
}

} // namespace gcl::crit
