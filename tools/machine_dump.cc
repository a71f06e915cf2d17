/**
 * @file
 * Machine-description inspector for the configs/ zoo:
 *
 *   machine_dump [NAME|PATH]       print the resolved machine in canonical
 *                                  form (redirect to a file to snapshot it;
 *                                  no argument = the compiled-in C2050)
 *   machine_dump --describe [M]    human-readable summary instead (the
 *                                  same text gcl_paper table2_config renders)
 *   machine_dump --diff A B        field-by-field diff of two machines;
 *                                  exits 1 when they differ
 *   machine_dump --list            known machine names + search path
 *
 * Canonical form round-trips: `machine_dump c2050 > x.config` followed by
 * `machine_dump --diff c2050 x.config` reports no differences.
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "guard/sim_error.hh"
#include "sim/config.hh"
#include "sim/machine.hh"

namespace
{

using gcl::SimError;
using gcl::sim::GpuConfig;
using gcl::sim::MachineRegistry;

/** Resolve a spec ("" = compiled defaults), exiting with a message on error. */
GpuConfig
resolveOrDie(const std::string &spec)
{
    try {
        return MachineRegistry::resolve(spec);
    } catch (const SimError &error) {
        std::fprintf(stderr, "machine_dump: %s\n",
                     error.message().c_str());
        std::exit(2);
    }
}

/** Canonical form as an ordered key -> value map (for diffing). */
std::map<std::string, std::string>
fields(const GpuConfig &config)
{
    std::map<std::string, std::string> out;
    std::istringstream in(gcl::sim::serializeMachine(config));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] != '-')
            continue;
        const size_t sp = line.find(' ');
        out[line.substr(1, sp - 1)] = line.substr(sp + 1);
    }
    return out;
}

int
diff(const std::string &a_spec, const std::string &b_spec)
{
    const auto a = fields(resolveOrDie(a_spec));
    const auto b = fields(resolveOrDie(b_spec));
    // serializeMachine emits the same key set for every config, so a
    // two-way walk over one map sees every field.
    unsigned differing = 0;
    for (const auto &[key, a_value] : a) {
        const std::string &b_value = b.at(key);
        if (a_value == b_value)
            continue;
        ++differing;
        std::printf("%-22s %-20s | %s\n", key.c_str(), a_value.c_str(),
                    b_value.c_str());
    }
    if (differing == 0) {
        std::printf("machines are identical (%zu fields)\n", a.size());
        return 0;
    }
    std::printf("%u of %zu fields differ (%s | %s)\n", differing, a.size(),
                a_spec.empty() ? "<defaults>" : a_spec.c_str(),
                b_spec.empty() ? "<defaults>" : b_spec.c_str());
    return 1;
}

int
list()
{
    for (const std::string &name : MachineRegistry::knownMachines())
        std::printf("%s\n", name.c_str());
    std::fprintf(stderr, "search path: %s\n",
                 MachineRegistry::searchDescription().c_str());
    return 0;
}

int
usage(int rc)
{
    std::fprintf(
        rc == 0 ? stdout : stderr,
        "usage: machine_dump [NAME|PATH]        canonical machine file\n"
        "       machine_dump --describe [M]     human-readable summary\n"
        "       machine_dump --diff A B         field diff (exit 1 if "
        "they differ)\n"
        "       machine_dump --list             known machines\n");
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0))
        return usage(0);
    if (argc >= 2 && std::strcmp(argv[1], "--list") == 0)
        return argc == 2 ? list() : usage(2);
    if (argc >= 2 && std::strcmp(argv[1], "--diff") == 0)
        return argc == 4 ? diff(argv[2], argv[3]) : usage(2);
    if (argc >= 2 && std::strcmp(argv[1], "--describe") == 0) {
        if (argc > 3)
            return usage(2);
        const GpuConfig config = resolveOrDie(argc == 3 ? argv[2] : "");
        std::printf("%s", config.describe().c_str());
        return 0;
    }
    if (argc > 2 || (argc == 2 && argv[1][0] == '-'))
        return usage(2);

    const GpuConfig config = resolveOrDie(argc == 2 ? argv[1] : "");
    std::printf("%s", gcl::sim::serializeMachine(config).c_str());
    return 0;
}
