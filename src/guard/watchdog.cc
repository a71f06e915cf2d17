#include "watchdog.hh"

#include <sstream>

namespace gcl::guard
{

bool
Watchdog::check(uint64_t now, uint64_t insts, uint64_t reqs)
{
    nextCheck_ = now + interval_;
    if (insts != lastInsts_ || reqs != lastReqs_) {
        lastInsts_ = insts;
        lastReqs_ = reqs;
        lastProgress_ = now;
        return false;
    }
    return now - lastProgress_ >= budget_;
}

std::string
HangReport::summary() const
{
    std::ostringstream oss;
    oss << "no forward progress for " << stallCycles
        << " cycles in kernel '" << kernel << "' (last progress @"
        << lastProgressCycle << ", " << reqsInFlight()
        << " requests in flight)";
    return oss.str();
}

std::string
HangReport::render() const
{
    std::ostringstream oss;
    oss << "HangReport: kernel '" << kernel << "' stalled at cycle "
        << cycle << "\n";
    oss << "  last progress @" << lastProgressCycle << " ("
        << stallCycles << " stalled cycles)\n";
    oss << "  conservation: " << reqsIssued << " requests issued, "
        << reqsCompleted << " completed, " << reqsInFlight()
        << " in flight; " << instsIssued << " warp insts issued\n";
    oss << "  icnt: " << icntReqQueued << " requests / " << icntRespQueued
        << " responses queued\n";
    if (!compositionError.empty())
        oss << "  report composition failed (partial report): "
            << compositionError << "\n";
    for (const auto &sm : sms) {
        // Idle SMs are noise in a hang dump; show only the ones holding
        // work.
        if (sm.residentCtas == 0 && sm.ldstQueued == 0 &&
            sm.pendingOps == 0 && sm.mshrOccupancy == 0)
            continue;
        oss << "  sm" << sm.sm << ": " << sm.residentCtas << " CTAs, "
            << sm.activeWarps << " warps (" << sm.warpsAtBarrier
            << " at barrier), " << sm.inflightOps
            << " scoreboard ops in flight, ldst " << sm.ldstQueued
            << " queued / " << sm.pendingOps << " pending, L1 MSHR "
            << sm.mshrOccupancy << " / " << sm.reservedLines
            << " reserved lines";
        if (!sm.stuckWarps.empty())
            oss << "; stuck: " << sm.stuckWarps;
        if (!sm.critSummary.empty())
            oss << "; " << sm.critSummary;
        oss << "\n";
    }
    if (!critBlocking.empty())
        oss << "  " << critBlocking << "\n";
    for (const auto &part : partitions) {
        if (part.ropQueued == 0 && part.dramQueued == 0 &&
            part.respQueued == 0 && part.mshrOccupancy == 0)
            continue;
        oss << "  part" << part.partition << ": rop " << part.ropQueued
            << ", dram " << part.dramQueued << ", resp " << part.respQueued
            << ", L2 MSHR " << part.mshrOccupancy << " / "
            << part.reservedLines << " reserved lines\n";
    }
    return oss.str();
}

} // namespace gcl::guard
