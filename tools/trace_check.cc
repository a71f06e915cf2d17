/**
 * @file
 * Offline checker for the artifacts the bench harness writes:
 *
 *   trace_check --trace=FILE   Chrome trace-event JSON (--trace-out=)
 *   trace_check --stats=FILE   per-app stats JSON (--stats-json=)
 *
 * The trace checker streams line-by-line (the writer emits one event per
 * line), so multi-GB traces validate in bounded memory: every event must
 * parse as JSON, carry a "ph", carry ts/pid unless it is metadata, and
 * every async "b" must meet its "e" with the same (cat, id, name).
 * Exits nonzero on the first structural problem.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "trace/export.hh"
#include "trace/json.hh"

namespace
{

using gcl::trace::JsonValue;
using gcl::trace::parseJson;

int
fail(const std::string &msg)
{
    std::fprintf(stderr, "trace_check: %s\n", msg.c_str());
    return 1;
}

int
checkTrace(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return fail("cannot open trace '" + path + "'");

    // (cat, id, name) -> open-slice balance; only in-flight keys live here.
    std::map<std::string, long> open;
    size_t events = 0, begins = 0, ends = 0, counters = 0, instants = 0;
    size_t lineno = 0;
    bool saw_open = false, saw_close = false;
    std::string line;

    while (std::getline(in, line)) {
        ++lineno;
        // Strip the separator the writer appends and surrounding space.
        while (!line.empty() &&
               (line.back() == ',' || line.back() == ' ' ||
                line.back() == '\r'))
            line.pop_back();
        size_t start = line.find_first_not_of(" \t");
        if (start == std::string::npos)
            continue;
        const std::string body = line.substr(start);
        if (body == "[") {
            saw_open = true;
            continue;
        }
        if (body == "]") {
            saw_close = true;
            continue;
        }

        JsonValue ev;
        std::string error;
        if (!parseJson(body, ev, &error))
            return fail("line " + std::to_string(lineno) + ": " + error);
        if (!ev.isObject() || !ev.has("ph") || !ev["ph"].isString())
            return fail("line " + std::to_string(lineno) +
                        ": event without a \"ph\"");
        ++events;
        const std::string &ph = ev["ph"].string;
        if (ph == "M")
            continue;
        if (!ev.has("ts") || !ev["ts"].isNumber() || !ev.has("pid"))
            return fail("line " + std::to_string(lineno) +
                        ": non-metadata event without ts/pid");
        if (ph == "C") {
            ++counters;
        } else if (ph == "i") {
            ++instants;
        } else if (ph == "b" || ph == "e") {
            if (!ev.has("cat") || !ev.has("id") || !ev.has("name"))
                return fail("line " + std::to_string(lineno) +
                            ": async event without cat/id/name");
            const std::string key = ev["cat"].string + '\0' +
                                    ev["id"].string + '\0' +
                                    ev["name"].string;
            long &balance = open[key];
            if (ph == "b") {
                ++begins;
                ++balance;
            } else {
                ++ends;
                if (--balance < 0)
                    return fail("line " + std::to_string(lineno) +
                                ": \"e\" before its \"b\" for " +
                                ev["name"].string);
            }
            if (balance == 0)
                open.erase(key);
        }
    }

    if (!saw_open || !saw_close)
        return fail("trace is not a closed JSON array");
    if (!open.empty())
        return fail(std::to_string(open.size()) +
                    " async slices never closed");

    std::printf("trace_check: %s ok (%zu events: %zu b / %zu e / "
                "%zu i / %zu C)\n",
                path.c_str(), events, begins, ends, instants, counters);
    return 0;
}

/**
 * Re-verify the crit profiler's accounting identity from the exported
 * scalars alone: per SM and device-wide, issued + sum(stall reasons) must
 * equal cycles * issue_width exactly. A violation means a cycle was
 * double-charged or dropped somewhere between Sm::issueCycle and export.
 */
int
checkCrit(const std::string &path, const std::string &name,
          const gcl::StatsSet &set)
{
    static const char *const kReasons[] = {
        "data_hazard", "barrier",           "ibuffer_empty", "pipeline",
        "mshr_full",   "icnt_backpressure", "idle",
    };
    const double width = set.get("crit.issue_width");
    if (width <= 0)
        return fail(path + ": app '" + name +
                    "' crit section without a positive issue_width");

    auto identity = [&](const std::string &prefix) {
        double charged = set.get(prefix + "issued");
        for (const char *reason : kReasons)
            charged += set.get(prefix + "stall." + reason);
        return charged == set.get(prefix + "cycles") * width;
    };

    unsigned sms = 0;
    for (;; ++sms) {
        const std::string prefix = "crit.sm" + std::to_string(sms) + '.';
        if (!set.has(prefix + "cycles"))
            break;
        if (!identity(prefix))
            return fail(path + ": app '" + name + "' sm" +
                        std::to_string(sms) +
                        ": issued + stalls != cycles * issue_width");
    }
    if (sms != static_cast<unsigned>(set.get("crit.sms")))
        return fail(path + ": app '" + name + "': crit.sms says " +
                    std::to_string(
                        static_cast<unsigned>(set.get("crit.sms"))) +
                    " SMs but " +
                    std::to_string(sms) + " crit.sm<i> sections exported");
    if (!identity("crit."))
        return fail(path + ": app '" + name +
                    "': device-wide issued + stalls != cycles * "
                    "issue_width");
    return 0;
}

int
checkStats(const std::string &path)
{
    // The reader enforces the record layout and the scalars/histograms
    // schema, not just well-formed JSON.
    std::vector<gcl::trace::StatsRecord> records;
    std::string error;
    if (!gcl::trace::readStatsFile(path, records, &error))
        return fail(error);
    if (records.empty())
        return fail(path + ": \"apps\" is empty");

    for (const gcl::trace::StatsRecord &rec : records) {
        const std::string &name = rec.name;
        const gcl::StatsSet &set = rec.stats;
        if (!set.has("cycles") || set.get("cycles") <= 0)
            return fail(path + ": app '" + name +
                        "' has no positive \"cycles\" scalar");
        // The sleep counter is a host-side wall-clock diagnostic
        // (SimContext::dormantCycles, surfaced on the bench runner's
        // per-app line and in perf_sweep's JSON). The stats artifacts
        // must stay byte-identical with cycle_skipping on and off, so
        // finding it here means the identity contract broke.
        if (set.has("sim.dormant_cycles"))
            return fail(path + ": app '" + name + "': host-side skip "
                        "accounting 'sim.dormant_cycles' leaked into the "
                        "deterministic stats");
        if (set.has("crit.issue_width"))
            if (int rc = checkCrit(path, name, set))
                return rc;
    }

    std::printf("trace_check: %s ok (%zu apps)\n", path.c_str(),
                records.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path, stats_path;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--trace=", 8) == 0)
            trace_path = arg + 8;
        else if (std::strncmp(arg, "--stats=", 8) == 0)
            stats_path = arg + 8;
        else
            return fail(std::string("unknown argument '") + arg +
                        "' (usage: trace_check [--trace=FILE] "
                        "[--stats=FILE])");
    }
    if (trace_path.empty() && stats_path.empty())
        return fail("nothing to do (pass --trace= and/or --stats=)");

    if (!trace_path.empty())
        if (int rc = checkTrace(trace_path))
            return rc;
    if (!stats_path.empty())
        if (int rc = checkStats(stats_path))
            return rc;
    return 0;
}
