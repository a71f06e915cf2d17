/**
 * @file
 * `gcl::snap` — versioned, CRC-guarded snapshot files.
 *
 * A Snapshot holds the functional fast-forward prefix that sampled runs
 * share across a --machine sweep (Gpu::saveFunctional): a small header
 * (identity + provenance) plus named binary sections — "ffstate" (the
 * capture point), "gmem" (device memory), "hostlog" (the host calls to
 * replay) and "sample" (the extrapolation book and the warm ring). Units
 * write themselves with the SnapWriter primitives (io.hh); the container
 * owns the file format:
 *
 *   magic "GCLSNAP1" | u32 schema | header | u32 nsections |
 *   { name, u64 size, bytes }* | u32 crc32(everything before)
 *
 * Two integrity layers gate a warm start:
 *  - structure: magic, schema version, and the trailing CRC-32 over every
 *    preceding byte — a truncated, corrupted, or foreign file is rejected
 *    with a structured SimError{Kind::Snapshot} before any state is
 *    touched;
 *  - identity: the header carries the functional config fingerprint, the
 *    machine name and the application, so the warm-start layer
 *    (workloads::SimContext) can pass over a prefix taken for another
 *    app, functional configuration or dataset.
 *
 * Files are written atomically (temp + rename) so a kill mid-write never
 * leaves a truncated .snap under the final name.
 */

#ifndef GCL_SNAP_SNAPSHOT_HH
#define GCL_SNAP_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io.hh"

namespace gcl::snap
{

/**
 * Bump on any incompatible change to a section's field sequence.
 *   v2: the SM section lost its issue-scan flag byte; the SM now takes
 *       issue readiness from its ready-warp masks alone, so a v1
 *       boundary state must not resume under the new issue rule.
 *   v3: the stats section holds one accumulation state instead of a
 *       shard count and one state per unit (base, then every SM and
 *       partition).
 * Both changes were to sections of the whole-device kernel-boundary
 * checkpoints, which no longer exist. Neither they nor the deletion of
 * those checkpoints touched the functional prefix's sections, so the
 * version stays 3 and a prefix written by an earlier v3 build stays
 * readable.
 */
constexpr uint32_t kSchemaVersion = 3;

/** File magic; the trailing '1' is cosmetic, kSchemaVersion governs. */
constexpr char kMagic[8] = {'G', 'C', 'L', 'S', 'N', 'A', 'P', '1'};

/** One application's functional prefix state. */
class Snapshot
{
  public:
    // ---- Header (identity + provenance) ----
    uint64_t configFingerprint = 0; //!< GpuConfig::functionalFingerprint()
    std::string machineName;        //!< machine of the capturing run
    std::string app;                //!< workload name
    uint64_t kernelIndex = 0;       //!< launches completed at capture
    uint64_t cycle = 0;             //!< device clock at capture (0: a
                                    //!< prefix never ticks)
    /** Free-form provenance (e.g. dataset_version), kept in order. */
    std::vector<std::pair<std::string, std::string>> meta;

    // ---- Sections ----

    /** Writer for section @p name, created on first use (append order). */
    SnapWriter &section(const std::string &name);

    bool has(const std::string &name) const;

    /** Reader over @p name's bytes; SimError{Snapshot} when absent. */
    SnapReader reader(const std::string &name) const;

    // ---- Files ----

    /** Full serialized byte image (header + sections + CRC). */
    std::vector<uint8_t> serialize() const;

    /**
     * Write atomically to @p path (temp + rename).
     * @throws SimError{Kind::Snapshot} on I/O failure
     */
    void writeFile(const std::string &path) const;

    /**
     * Parse and validate @p data (magic, schema version, CRC).
     * @throws SimError{Kind::Snapshot} on any mismatch
     */
    static Snapshot deserialize(const std::vector<uint8_t> &data);

    /** Read + validate a snapshot file; SimError{Snapshot} on failure. */
    static Snapshot readFile(const std::string &path);

  private:
    std::vector<std::pair<std::string, SnapWriter>> sections_;
};

/** 16-hex-digit rendering of a config fingerprint (error messages). */
std::string hexFingerprint(uint64_t fingerprint);

} // namespace gcl::snap

#endif // GCL_SNAP_SNAPSHOT_HH
