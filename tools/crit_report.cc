/**
 * @file
 * Offline critical-load report generator over a bench stats JSON
 * (--stats-json= artifact, the same file tools/trace_check validates):
 *
 *   crit_report --stats=FILE [--top-n=N] [--csv] [--collapsed=FILE]
 *
 * Default output is the human-readable per-app report (CPI stack + ranked
 * critical-load table) on stdout; --csv switches stdout to one RFC-4180
 * table across all apps; --collapsed=FILE additionally writes
 * flamegraph-compatible collapsed stall stacks. Apps in the JSON that
 * carry no crit.* section (profiler was off, or the run failed) are
 * skipped with a note on stderr.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "crit/report.hh"
#include "trace/export.hh"
#include "util/count.hh"
#include "util/stats.hh"

namespace
{

int
fail(const std::string &msg)
{
    std::fprintf(stderr, "crit_report: %s\n", msg.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string stats_path, collapsed_path;
    size_t top_n = 10;
    bool csv = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--stats=", 8) == 0) {
            stats_path = arg + 8;
        } else if (std::strncmp(arg, "--top-n=", 8) == 0) {
            top_n = gcl::parseCount("--top-n", arg + 8, "row count", false);
        } else if (std::strncmp(arg, "--collapsed=", 12) == 0) {
            collapsed_path = arg + 12;
        } else if (std::strcmp(arg, "--csv") == 0) {
            csv = true;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            std::printf("usage: %s --stats=FILE [--top-n=N] [--csv] "
                        "[--collapsed=FILE]\n",
                        argv[0]);
            return 0;
        } else {
            return fail(std::string("unknown argument '") + arg +
                        "' (try --help)");
        }
    }
    if (stats_path.empty())
        return fail("no input (pass --stats=FILE, a --stats-json artifact)");

    std::vector<gcl::trace::StatsRecord> records;
    std::string error;
    if (!gcl::trace::readStatsFile(stats_path, records, &error))
        return fail(error);

    std::ofstream collapsed;
    if (!collapsed_path.empty()) {
        collapsed.open(collapsed_path);
        if (!collapsed)
            return fail("cannot write collapsed stacks to '" +
                        collapsed_path + "'");
    }

    size_t reported = 0;
    bool csv_header = true;
    for (const gcl::trace::StatsRecord &rec : records) {
        const std::string &name = rec.name;
        const gcl::StatsSet &set = rec.stats;
        if (!set.has("crit.issue_width")) {
            std::fprintf(stderr,
                         "crit_report: app '%s' has no crit section "
                         "(run the bench with --crit); skipping\n",
                         name.c_str());
            continue;
        }
        if (csv) {
            gcl::crit::renderCsv(std::cout, name, set, top_n, csv_header);
            csv_header = false;
        } else {
            gcl::crit::renderText(std::cout, name, set, top_n);
        }
        if (collapsed.is_open())
            gcl::crit::appendCollapsed(collapsed, name, set);
        ++reported;
    }
    if (reported == 0)
        return fail(stats_path + ": no app carries a crit section");
    return 0;
}
