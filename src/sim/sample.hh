/**
 * @file
 * SamplePlan — parsed `--sample` specification for sampled simulation.
 *
 * Sampling splits a run into fast-forwarded spans (functional execution
 * only, no timing) and detailed windows (full timing model). The spec
 * grammar is colon-separated and comma-free on purpose: a spec must be
 * able to ride inside a `--sim-config=key=value,...` override string,
 * whose parser splits on commas.
 *
 *   kernels:K1:K2:...   simulate the listed launch indices (0-based) in
 *                       full detail, fast-forward every other launch
 *   ctas:0:0            fast-forward the whole run: no CTA is simulated
 *                       in detail, which is how the functional path is
 *                       exercised and timed on its own
 *   every:N             simulate every N-th CTA (linear id % N == 0) of
 *                       every launch in detail, fast-forward the rest
 *
 * The empty spec means sampling off: every instruction runs under the
 * full timing model, byte-identical to a build without this feature.
 */

#ifndef GCL_SIM_SAMPLE_HH
#define GCL_SIM_SAMPLE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gcl::sim
{

/** Parsed `--sample` spec; see the file comment for the grammar. */
struct SamplePlan
{
    enum class Mode { Off, Kernels, FastForward, EveryNth };

    Mode mode = Mode::Off;
    std::vector<uint64_t> kernels; //!< detailed launch indices (Kernels)
    uint64_t everyN = 0;           //!< detail stride (EveryNth)

    /**
     * Parse @p spec ("" = Off).
     * @throws SimError{Kind::Config} on an unknown mode or malformed
     *         fields — validated eagerly at flag-parse time so a typo is
     *         a config error, not a mid-sweep failure.
     */
    static SamplePlan parse(const std::string &spec);

    /** True when any sampling is requested. */
    bool active() const { return mode != Mode::Off; }

    /**
     * True when launch @p launch_index runs fully detailed with no
     * per-CTA windowing (Kernels mode listing it, or sampling off).
     */
    bool kernelDetailed(uint64_t launch_index) const;

    /**
     * The per-CTA window of a launch of @p total CTAs: every N-th linear
     * id, ascending, under every:N; none in the other modes, whose
     * launches run whole (kernelDetailed) or fast-forward whole.
     */
    std::vector<uint64_t> detailedCtas(uint64_t total) const;

    /** Human-readable summary for config describe() output. */
    std::string describe() const;
};

} // namespace gcl::sim

#endif // GCL_SIM_SAMPLE_HH
