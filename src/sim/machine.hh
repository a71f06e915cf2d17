/**
 * @file
 * The machine description frontend: gpgpusim.config-style text files that
 * fully populate a GpuConfig, and the registry that resolves `--machine`
 * specs to them.
 *
 * Grammar (SNIPPETS.md Snippet 2 is the exemplar):
 *   - one option per line: `-key value`
 *   - `#` starts a comment (full-line or trailing); blank lines ignored
 *   - keys are exactly the `--sim-config` override vocabulary
 *     (GpuConfig::knownOverrideKeys), so a machine file and a CLI
 *     override can never disagree about what a knob is called
 *   - cache geometry is a `<nsets>:<bsize>:<assoc>[:<mshr>[:<merge>]]`
 *     string (`l1_cache` / `l2_cache`), per-opcode-class timing a
 *     `<latency>:<initiation>` pair (`op_int_alu` ... `op_sfu`)
 *
 * An unknown key is fatal (SimError{Kind::Config}) and the error lists the
 * full vocabulary, mirroring applyOverride: a typo in a machine file must
 * never silently run a different machine.
 *
 * Precedence: compiled defaults < machine file < `--sim-config` overrides
 * (the bench runner layers the latter on the resolved machine).
 *
 * The committed zoo lives in configs/: c2050 (byte-equivalent to the
 * compiled defaults), hbm-sectored, modern-core, and tiny (a 2-SM /
 * 1-partition machine the tests use to prove nothing assumes Table II's
 * unit counts).
 */

#ifndef GCL_SIM_MACHINE_HH
#define GCL_SIM_MACHINE_HH

#include <string>
#include <vector>

#include "config.hh"

namespace gcl::sim
{

/**
 * Parse machine-file text into a config (compiled defaults underneath).
 * @p origin names the source in errors ("configs/c2050.config:12: ...").
 * A file that never sets `machine_name` gets @p fallback_name.
 */
GpuConfig parseMachineText(const std::string &text,
                           const std::string &origin,
                           const std::string &fallback_name);

/**
 * Load and parse one machine file. The fallback machine name is the file
 * stem ("configs/tiny.config" -> "tiny").
 */
GpuConfig loadMachineFile(const std::string &path);

/**
 * Canonical machine-file serialization of the machine-description fields
 * (identity, core organization, execution timing, caches, interconnect,
 * DRAM). Experiment knobs — ablations, run control, host-side switches —
 * are deliberately omitted: a machine file describes a machine, not an
 * experiment. parseMachineText(serializeMachine(c)) reproduces every
 * serialized field, which tests/test_machine.cc holds as the round-trip
 * invariant.
 */
std::string serializeMachine(const GpuConfig &config);

/** Resolves `--machine` specs to machine files. */
class MachineRegistry
{
  public:
    /**
     * Resolve @p spec to a fully-populated config:
     *   - ""                -> the compiled defaults (the c2050 machine)
     *   - an existing path  -> that file
     *   - a bare name       -> `<name>.config` under $GCL_MACHINE_DIR
     *                          (when set), then ./configs
     * Unresolvable specs raise SimError{Kind::Config} listing the known
     * machine names and the directories searched.
     */
    static GpuConfig resolve(const std::string &spec);

    /**
     * The path resolve() would load for @p spec, without parsing it;
     * empty for the built-in defaults. Raises like resolve() when the
     * spec matches nothing.
     */
    static std::string resolvePath(const std::string &spec);

    /** Machine names available in the search directories, sorted. */
    static std::vector<std::string> knownMachines();

    /** Human-readable search-path description for errors and --help. */
    static std::string searchDescription();
};

} // namespace gcl::sim

#endif // GCL_SIM_MACHINE_HH
