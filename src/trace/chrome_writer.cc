#include "chrome_writer.hh"

#include <cinttypes>
#include <cstdio>

#include "json.hh"

namespace gcl::trace
{

namespace
{

/** Hex id string ("0x2a") — ids stay exact regardless of JSON doubles. */
std::string
hexId(uint64_t id)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "\"0x%" PRIx64 "\"", id);
    return buf;
}

std::string
eventHeader(const char *ph, const char *cat, uint64_t ts, int pid,
            int64_t tid)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"%s\",\"cat\":\"%s\",\"ts\":%" PRIu64
                  ",\"pid\":%d,\"tid\":%" PRId64,
                  ph, cat, ts, pid, tid);
    return buf;
}

} // namespace

ChromeTraceWriter::ChromeTraceWriter(std::ostream &out)
    : ChromeTraceWriter(out, false)
{
}

ChromeTraceWriter::ChromeTraceWriter(std::ostream &out, bool fragment)
    : out_(out), fragment_(fragment)
{
    if (!fragment_)
        out_ << "[\n";
}

ChromeTraceWriter::~ChromeTraceWriter()
{
    close();
}

void
ChromeTraceWriter::raw(const std::string &json)
{
    if (!first_)
        out_ << ",\n";
    first_ = false;
    out_ << json;
    ++written_;
}

void
ChromeTraceWriter::beginProcess(int pid, const std::string &name,
                                const std::string &label)
{
    pid_ = pid;
    raw("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
        std::to_string(pid) + ",\"args\":{\"name\":" + jsonQuote(name) +
        "}}");
    if (!label.empty())
        raw("{\"ph\":\"M\",\"name\":\"process_labels\",\"pid\":" +
            std::to_string(pid) + ",\"args\":{\"labels\":" +
            jsonQuote(label) + "}}");
}

void
ChromeTraceWriter::close()
{
    if (closed_)
        return;
    closed_ = true;
    if (!fragment_)
        out_ << "\n]\n";
    out_.flush();
}

void
ChromeTraceWriter::appendFragment(std::istream &body, uint64_t events)
{
    if (body.peek() == std::istream::traits_type::eof())
        return;
    if (!first_)
        out_ << ",\n";
    first_ = false;
    out_ << body.rdbuf();
    written_ += events;
}

void
ChromeTraceWriter::consume(const TraceEvent *events, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        writeEvent(events[i]);
}

void
ChromeTraceWriter::writeEvent(const TraceEvent &ev)
{
    switch (ev.kind) {
      case EventKind::OpIssue:
      case EventKind::OpDone:
        emitOp(ev);
        return;
      case EventKind::ReqL1Access:
      case EventKind::ReqInject:
      case EventKind::ReqRopEnqueue:
      case EventKind::ReqL2Access:
      case EventKind::ReqDramEnqueue:
      case EventKind::ReqL2Done:
      case EventKind::ReqRespDepart:
      case EventKind::ReqComplete:
        emitRequest(ev);
        return;
      case EventKind::Coalesce: {
        const auto lanes = static_cast<uint32_t>(ev.addr >> 32);
        const auto lines = static_cast<uint32_t>(ev.addr);
        raw(eventHeader("i", "coalesce", ev.cycle, pid_, ev.unit) +
            ",\"s\":\"t\",\"name\":\"coalesce\",\"args\":{\"pc\":" +
            std::to_string(ev.pc) + ",\"lanes\":" + std::to_string(lanes) +
            ",\"lines\":" + std::to_string(lines) + ",\"class\":\"" +
            ((ev.flags & kFlagNonDet) ? "nondet" : "det") + "\"}}");
        return;
      }
      case EventKind::Counter:
        emitCounter(ev);
        return;
    }
}

void
ChromeTraceWriter::emitOp(const TraceEvent &ev)
{
    const char *ph = ev.kind == EventKind::OpIssue ? "b" : "e";
    const char *name = (ev.flags & kFlagNonDet) ? "gload.nondet"
                                                : "gload.det";
    raw(eventHeader(ph, "gload", ev.cycle, pid_, ev.unit) +
        ",\"id\":" + hexId(ev.id) + ",\"name\":\"" + name +
        "\",\"args\":{\"pc\":" + std::to_string(ev.pc) +
        ",\"warp\":" + std::to_string(ev.addr) +
        ",\"sm\":" + std::to_string(ev.unit) + "}}");
}

const char *
ChromeTraceWriter::stageName(const PrevStage &prev, EventKind cur)
{
    switch (prev.kind) {
      case EventKind::ReqL1Access:
        if (cur == EventKind::ReqComplete)
            return prev.outcome == 0 ? "l1_data" : "l1_merge_wait";
        return "l1_to_icnt";
      case EventKind::ReqInject:
        return "icnt_req";
      case EventKind::ReqRopEnqueue:
        return "rop";
      case EventKind::ReqL2Access:
        if (cur == EventKind::ReqDramEnqueue)
            return "l2_miss";
        return prev.outcome == 0 ? "l2_hit" : "l2_merge_wait";
      case EventKind::ReqDramEnqueue:
        return "dram";
      case EventKind::ReqL2Done:
        return "resp_queue";
      case EventKind::ReqRespDepart:
        return "icnt_resp";
      default:
        return "stage";
    }
}

void
ChromeTraceWriter::emitAsyncSlice(const char *cat, uint64_t id,
                                  const char *name, uint64_t begin,
                                  uint64_t end, const TraceEvent &ev)
{
    const std::string id_str = hexId(id);
    const std::string args = ",\"args\":{\"pc\":" + std::to_string(ev.pc) +
                             ",\"line\":" + std::to_string(ev.addr) + "}";
    raw(eventHeader("b", cat, begin, pid_, ev.unit) + ",\"id\":" + id_str +
        ",\"name\":\"" + name + "\"" + args + "}");
    raw(eventHeader("e", cat, end, pid_, ev.unit) + ",\"id\":" + id_str +
        ",\"name\":\"" + name + "\"}");
}

void
ChromeTraceWriter::emitRequest(const TraceEvent &ev)
{
    const int outcome = unpackOutcome(ev.flags);

    // Reservation fails (outcomes 3..5) are retry cycles, not lifecycle
    // progress: surface them as instants and leave the pairing state
    // alone. The sim already dedupes consecutive identical fails.
    if (outcome >= 3) {
        static const char *l1_names[3] = {"l1.fail_tag", "l1.fail_mshr",
                                          "l1.fail_icnt"};
        static const char *l2_names[3] = {"l2.fail_tag", "l2.fail_mshr",
                                          "l2.fail_dram"};
        const bool l1 = ev.kind == EventKind::ReqL1Access;
        emitInstant(ev, l1 ? "l1fail" : "l2fail",
                    (l1 ? l1_names : l2_names)[outcome - 3]);
        return;
    }

    // Stores never produce a response; writing their (open-ended)
    // lifecycles would leak pairing state, so only their fails above are
    // surfaced.
    if (ev.flags & kFlagWrite)
        return;

    auto it = inflight_.find(ev.id);
    if (it != inflight_.end()) {
        // Close the stage between the previous lifecycle point and this
        // one. Zero-length stages carry no information — skip them.
        if (ev.cycle > it->second.cycle)
            emitAsyncSlice("req", ev.id, stageName(it->second, ev.kind),
                           it->second.cycle, ev.cycle, ev);
    }

    if (ev.kind == EventKind::ReqComplete) {
        if (it != inflight_.end())
            inflight_.erase(it);
        return;
    }
    inflight_[ev.id] = PrevStage{ev.kind, outcome, ev.cycle};
}

void
ChromeTraceWriter::emitInstant(const TraceEvent &ev, const char *cat,
                               const std::string &name)
{
    raw(eventHeader("i", cat, ev.cycle, pid_, ev.unit) +
        ",\"s\":\"t\",\"name\":" + jsonQuote(name) +
        ",\"args\":{\"pc\":" + std::to_string(ev.pc) +
        ",\"line\":" + std::to_string(ev.addr) +
        ",\"req\":" + std::to_string(ev.id) + "}}");
}

void
ChromeTraceWriter::emitCounter(const TraceEvent &ev)
{
    raw(eventHeader("C", "timeline", ev.cycle, pid_, 0) + ",\"name\":\"" +
        toString(static_cast<CounterId>(ev.id)) +
        "\",\"args\":{\"value\":" + std::to_string(ev.addr) + "}}");
}

} // namespace gcl::trace
