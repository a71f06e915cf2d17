/**
 * @file
 * `gcl::snap` — versioned, CRC-guarded simulation snapshots.
 *
 * A Snapshot is the unit of checkpoint/restore: the full persistent state
 * of one simulated application at a kernel boundary, organized as a small
 * header (identity + provenance) plus named binary sections, one per
 * state-bearing unit ("gmem", "stats", "sm3", "part0", ...). Units write
 * themselves with the SnapWriter primitives (io.hh); the container owns
 * the file format:
 *
 *   magic "GCLSNAP1" | u32 schema | header | u32 nsections |
 *   { name, u64 size, bytes }* | u32 crc32(everything before)
 *
 * Two integrity layers gate a restore:
 *  - structure: magic, schema version, and the trailing CRC-32 over every
 *    preceding byte — a truncated, corrupted, or foreign file is rejected
 *    with a structured SimError{Kind::Snapshot} before any state is
 *    touched;
 *  - identity: the header carries the GpuConfig fingerprint, machine
 *    name, and application, so the restore layer (workloads::SimContext)
 *    can refuse a snapshot taken under a different configuration, naming
 *    both fingerprints.
 *
 * Files are written atomically (temp + rename) so a kill mid-checkpoint
 * never leaves a truncated .snap under the final name.
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
 */
constexpr uint32_t kSchemaVersion = 3;

/** File magic; the trailing '1' is cosmetic, kSchemaVersion governs. */
constexpr char kMagic[8] = {'G', 'C', 'L', 'S', 'N', 'A', 'P', '1'};

/** One application's full persistent state at a kernel boundary. */
class Snapshot
{
  public:
    // ---- Header (identity + provenance) ----
    uint64_t configFingerprint = 0; //!< GpuConfig::fingerprint() at save
    std::string machineName;        //!< config's machine description name
    std::string app;                //!< workload name
    uint64_t kernelIndex = 0;       //!< launches completed at the boundary
    uint64_t cycle = 0;             //!< device clock at the boundary
    /** Free-form provenance (e.g. dataset_version), kept in order. */
    std::vector<std::pair<std::string, std::string>> meta;

    // ---- Sections ----

    /** Writer for section @p name, created on first use (append order). */
    SnapWriter &section(const std::string &name);

    bool has(const std::string &name) const;

    /** Reader over @p name's bytes; SimError{Snapshot} when absent. */
    SnapReader reader(const std::string &name) const;

    size_t sectionSize(const std::string &name) const;

    /** Section names in creation order. */
    std::vector<std::string> sectionNames() const;

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

    /** Human-readable header + section table (snap_dump --describe). */
    std::string describe() const;

  private:
    std::vector<std::pair<std::string, SnapWriter>> sections_;
};

/** 16-hex-digit rendering of a config fingerprint (error messages). */
std::string hexFingerprint(uint64_t fingerprint);

} // namespace gcl::snap

#endif // GCL_SNAP_SNAPSHOT_HH
