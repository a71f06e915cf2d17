#include "sim_error.hh"

#include "watchdog.hh"

namespace gcl
{

namespace
{

std::string
formatWhat(SimError::Kind kind, const std::string &component,
           uint64_t cycle, const std::string &message)
{
    std::string out = "[";
    out += toString(kind);
    out += "] ";
    out += component;
    if (cycle != 0) {
        out += "@";
        out += std::to_string(cycle);
    }
    out += ": ";
    out += message;
    return out;
}

} // namespace

SimError::SimError(Kind kind, std::string component, uint64_t cycle,
                   std::string message)
    : std::runtime_error(formatWhat(kind, component, cycle, message)),
      kind_(kind), component_(std::move(component)), cycle_(cycle),
      message_(std::move(message))
{
}

const char *
toString(SimError::Kind kind)
{
    switch (kind) {
      case SimError::Kind::Config: return "config";
      case SimError::Kind::Invariant: return "invariant";
      case SimError::Kind::Workload: return "workload";
      case SimError::Kind::Hang: return "hang";
      case SimError::Kind::Timeout: return "timeout";
      case SimError::Kind::FaultInjected: return "fault_injected";
      case SimError::Kind::Canceled: return "canceled";
    }
    return "unknown";
}

SimFailure
SimFailure::fromError(const SimError &e)
{
    SimFailure f;
    f.failed = true;
    f.kind = toString(e.kind());
    f.component = e.component();
    f.cycle = e.cycle();
    f.message = e.message();
    if (e.hangReport)
        f.detail = e.hangReport->render();
    return f;
}

} // namespace gcl
