/**
 * @file
 * gcl_paper — regenerate the paper's tables and figures.
 *
 *   gcl_paper NAME... [options]    the named artifacts
 *   gcl_paper all [options]        every artifact
 *
 * Runs the union of the named artifacts' runs as one batch (shared runs
 * simulate once; misses spread over --jobs workers), then prints each
 * artifact in registry order. --help lists the artifacts and the flags.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/paper.hh"
#include "common/runner.hh"
#include "util/logging.hh"

int
main(int argc, char **argv)
{
    using namespace gcl;
    const auto &registry = bench::artifacts();

    std::string usage =
        "usage: gcl_paper NAME...|all [options]\n\nartifacts:\n";
    std::string known;
    for (const auto &artifact : registry) {
        char line[160];
        std::snprintf(line, sizeof(line), "  %-25s %s\n", artifact.name,
                      artifact.title);
        usage += line;
        known += known.empty() ? artifact.name : std::string(", ") +
                                                     artifact.name;
    }
    usage += "\noptions:\n";

    const std::vector<std::string> names =
        bench::initBench(argc, argv, usage);
    if (names.empty())
        gcl_fatal("name an artifact or 'all' (try --help)");
    std::vector<bool> selected(registry.size(), false);
    for (const std::string &name : names) {
        bool found = false;
        for (size_t i = 0; i < registry.size(); ++i)
            if (name == "all" || name == registry[i].name)
                selected[i] = found = true;
        if (!found)
            gcl_fatal("unknown artifact '", name, "' (known: ", known, ")");
    }

    std::vector<bench::Run> runs;
    for (size_t i = 0; i < registry.size(); ++i)
        if (selected[i])
            for (bench::Run &run :
                 registry[i].runs(bench::artifactBase(registry[i])))
                runs.push_back(std::move(run));
    const bench::Results results = bench::runApps(runs);

    for (size_t i = 0; i < registry.size(); ++i) {
        if (!selected[i])
            continue;
        const sim::GpuConfig base = bench::artifactBase(registry[i]);
        bench::printHeader(registry[i].title, base, std::cout);
        registry[i].print(base, results, std::cout);
    }
    return bench::finishBench();
}
