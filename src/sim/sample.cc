#include "sample.hh"

#include <algorithm>
#include <sstream>

#include "guard/sim_error.hh"
#include "util/count.hh"

namespace gcl::sim
{

namespace
{

[[noreturn]] void
badSpec(const std::string &spec, const char *expected)
{
    gcl_sim_error(SimError::Kind::Config, "sample", 0, "sample spec '",
                  spec, "' is not ", expected,
                  " (grammar: kernels:K1:K2:..., ctas:0:0, every:N)");
}

uint64_t
parseField(const std::string &spec, const std::string &item)
{
    if (item.empty())
        badSpec(spec, "a spec with non-empty numeric fields");
    const std::optional<uint64_t> out = tryParseCount(item);
    if (!out)
        badSpec(spec, "a spec with numeric fields");
    return *out;
}

} // namespace

SamplePlan
SamplePlan::parse(const std::string &spec)
{
    SamplePlan plan;
    if (spec.empty())
        return plan;

    std::istringstream items(spec);
    std::string head;
    std::getline(items, head, ':');
    std::vector<std::string> fields;
    std::string item;
    while (std::getline(items, item, ':'))
        fields.push_back(item);

    if (head == "kernels") {
        plan.mode = Mode::Kernels;
        if (fields.empty())
            badSpec(spec, "a kernel list with at least one index");
        for (const std::string &f : fields)
            plan.kernels.push_back(parseField(spec, f));
        std::sort(plan.kernels.begin(), plan.kernels.end());
    } else if (head == "ctas") {
        plan.mode = Mode::FastForward;
        if (spec != "ctas:0:0")
            badSpec(spec, "ctas:0:0, the one ctas spec");
    } else if (head == "every") {
        plan.mode = Mode::EveryNth;
        if (fields.size() != 1)
            badSpec(spec, "an every:N stride");
        plan.everyN = parseField(spec, fields[0]);
        if (plan.everyN == 0)
            badSpec(spec, "a non-zero stride");
    } else {
        badSpec(spec, "a known mode");
    }
    return plan;
}

bool
SamplePlan::kernelDetailed(uint64_t launch_index) const
{
    if (mode == Mode::Off)
        return true;
    if (mode == Mode::Kernels)
        return std::binary_search(kernels.begin(), kernels.end(),
                                  launch_index);
    return false;
}

std::vector<uint64_t>
SamplePlan::detailedCtas(uint64_t total) const
{
    std::vector<uint64_t> out;
    if (mode == Mode::EveryNth)
        for (uint64_t i = 0; i < total; i += everyN)
            out.push_back(i);
    return out;
}

std::string
SamplePlan::describe() const
{
    std::ostringstream oss;
    switch (mode) {
      case Mode::Off:
        oss << "off";
        break;
      case Mode::Kernels:
        oss << "detailed kernels";
        for (uint64_t k : kernels)
            oss << " " << k;
        break;
      case Mode::FastForward:
        oss << "every CTA fast-forwarded";
        break;
      case Mode::EveryNth:
        oss << "every " << everyN << (everyN == 1 ? "st" : "th")
            << " CTA per launch";
        break;
    }
    return oss.str();
}

} // namespace gcl::sim
