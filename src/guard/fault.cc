#include "fault.hh"

#include <sstream>

#include "sim_error.hh"
#include "util/count.hh"
#include "util/rng.hh"

namespace gcl::guard
{

namespace
{

constexpr const char *kKindNames[] = {"mshr", "icnt", "dram", "dropfill",
                                      "stop"};

/** "mshr, icnt, dram, dropfill, stop" for error messages. */
std::string
kindVocabulary()
{
    std::string out;
    for (const char *name : kKindNames) {
        if (!out.empty())
            out += ", ";
        out += name;
    }
    return out;
}

[[noreturn]] void
parseError(const std::string &spec, const std::string &why)
{
    gcl_sim_error(SimError::Kind::Config, "fault-plan", 0, why,
                  " in fault plan '", spec,
                  "' (grammar: seed=N; app=NAME; auto=N; kind@start[+len]"
                  " with kind one of ", kindVocabulary(), ")");
}

/** Strict non-negative integer parse; anything else is a spec error. */
uint64_t
parseNumber(const std::string &spec, const std::string &text)
{
    if (text.empty())
        parseError(spec, "missing number");
    const std::optional<uint64_t> value = tryParseCount(text);
    if (!value)
        parseError(spec, "'" + text + "' is not a number");
    return *value;
}

int
kindFromName(const std::string &name)
{
    for (size_t k = 0; k < std::size(kKindNames); ++k)
        if (name == kKindNames[k])
            return static_cast<int>(k);
    return -1;
}

} // namespace

const char *
toString(FaultKind kind)
{
    const auto i = static_cast<size_t>(kind);
    return i < std::size(kKindNames) ? kKindNames[i] : "unknown";
}

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    uint64_t auto_windows = 0;

    std::istringstream items(spec);
    std::string item;
    while (std::getline(items, item, ';')) {
        if (item.empty())
            continue;

        const size_t eq = item.find('=');
        const size_t at = item.find('@');
        if (eq != std::string::npos && (at == std::string::npos || eq < at)) {
            const std::string key = item.substr(0, eq);
            const std::string value = item.substr(eq + 1);
            if (key == "seed")
                plan.seed_ = parseNumber(spec, value);
            else if (key == "app")
                plan.app_ = value;
            else if (key == "auto")
                auto_windows = parseNumber(spec, value);
            else
                parseError(spec, "unknown key '" + key + "'");
            continue;
        }

        if (at == std::string::npos)
            parseError(spec, "item '" + item + "' is neither key=value "
                             "nor kind@start[+len]");
        const std::string kind_name = item.substr(0, at);
        const int kind = kindFromName(kind_name);
        if (kind < 0)
            parseError(spec, "unknown fault kind '" + kind_name + "'");

        FaultWindow window;
        window.kind = static_cast<FaultKind>(kind);
        std::string range = item.substr(at + 1);
        const size_t plus = range.find('+');
        if (plus != std::string::npos) {
            window.length = parseNumber(spec, range.substr(plus + 1));
            if (window.length == 0)
                parseError(spec, "zero-length window");
            range = range.substr(0, plus);
        }
        window.start = parseNumber(spec, range);
        plan.windows_.push_back(window);
    }

    // Auto windows: a pure function of the seed, drawn with the pinned
    // xoshiro generator so a plan reproduces bit-identically everywhere.
    if (auto_windows > 0) {
        Rng rng(plan.seed_ ^ 0x6761726475617264ull); // "guarduar d"
        for (uint64_t i = 0; i < auto_windows; ++i) {
            FaultWindow window;
            // DropFill and KernelStop excluded: auto plans model
            // survivable environmental degradation (resource-refusal
            // pressure); run-killing faults are asked for explicitly.
            window.kind = static_cast<FaultKind>(
                rng.nextBounded(static_cast<uint64_t>(FaultKind::DropFill)));
            window.start = 500 + rng.nextBounded(100'000);
            window.length = 100 + rng.nextBounded(5'000);
            plan.windows_.push_back(window);
        }
    }

    return plan;
}

std::string
FaultPlan::describe() const
{
    std::ostringstream oss;
    oss << "seed=" << seed_;
    if (!app_.empty())
        oss << ";app=" << app_;
    for (const auto &w : windows_) {
        oss << ";" << toString(w.kind) << "@" << w.start;
        if (w.length != 1)
            oss << "+" << w.length;
    }
    return oss.str();
}

} // namespace gcl::guard
