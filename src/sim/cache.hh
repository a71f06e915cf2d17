/**
 * @file
 * Set-associative cache model with reserved-line semantics, MSHRs and the
 * reservation-failure taxonomy of GPGPU-Sim (Section VI of the paper).
 *
 * The cache stores tags only; data lives in the functional GlobalMemory.
 * An access has one of six outcomes:
 *
 *   Hit          line valid                     -> data after hit latency
 *   HitReserved  line in flight, merged in MSHR -> data when the fill lands
 *   Miss         line reserved + MSHR allocated -> caller sends downstream
 *   FailTag      no way can be evicted (all reserved)
 *   FailMshr     MSHR entries exhausted, or the merge list is full
 *   FailIcnt     downstream injection buffer full (decided by the caller
 *                via the can_inject argument)
 *
 * A failed access is retried by the LD/ST unit on a later cycle, burning
 * the cycle — exactly the mechanism behind Fig 3 and the reservation-stall
 * components of Figs 5 and 7.
 *
 * The MSHR is a fixed-capacity open-addressed table (linear probing,
 * backward-shift deletion) whose entries chain their waiting requests
 * intrusively through MemRequest::nextWaiting — no per-line vector, no
 * hashing-library buckets, no allocation on the access path.
 */

#ifndef GCL_SIM_CACHE_HH
#define GCL_SIM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "config.hh"
#include "mem_request.hh"

namespace gcl::snap
{
class SnapWriter;
class SnapReader;
} // namespace gcl::snap

namespace gcl::sim
{

/** Outcome of one cache access attempt. */
enum class AccessOutcome : uint8_t
{
    Hit,
    HitReserved,
    Miss,
    FailTag,
    FailMshr,
    FailIcnt,
};

std::string toString(AccessOutcome outcome);

/**
 * Miss status holding registers: one entry per in-flight line, waiting
 * requests chained through the pool (MemRequest::nextWaiting).
 */
class Mshr
{
  public:
    Mshr(unsigned num_entries, unsigned max_merge, MemPools &pools,
         ReqHandle MemRequest::*link = &MemRequest::nextWaiting);

    bool full() const { return count_ >= numEntries_; }
    bool hasEntry(uint64_t line_addr) const { return find(line_addr) >= 0; }
    bool canMerge(uint64_t line_addr) const;
    size_t size() const { return count_; }

    /** Create the entry for a primary miss. */
    void allocate(uint64_t line_addr, ReqHandle req);

    /** Attach a secondary miss to an existing entry. */
    void merge(uint64_t line_addr, ReqHandle req);

    /**
     * Remove the entry on fill and hand back the chain of waiting
     * requests (primary first, linked via MemRequest::nextWaiting).
     */
    ReqHandle release(uint64_t line_addr);

  private:
    struct Entry
    {
        uint64_t lineAddr = 0;
        ReqHandle head = kNullHandle;   //!< primary miss
        ReqHandle tail = kNullHandle;   //!< last merged request
        uint32_t count = 0;             //!< 0 = slot empty
    };

    size_t slotOf(uint64_t line_addr) const;
    /** Index of the entry for @p line_addr, or -1. */
    int find(uint64_t line_addr) const;

    unsigned numEntries_;
    unsigned maxMerge_;
    MemPools &pools_;
    ReqHandle MemRequest::*link_;  //!< which chain field this level uses
    std::vector<Entry> table_;   //!< power-of-two open-addressed table
    uint64_t tableMask_;
    unsigned tableShift_;        //!< 64 - log2(table size), for slotOf
    unsigned count_ = 0;
};

/** Tag array + MSHR bundle used for both L1D and the L2 partitions. */
class Cache
{
  public:
    Cache(std::string name, const CacheConfig &config, MemPools &pools,
          ReqHandle MemRequest::*link = &MemRequest::nextWaiting);

    /**
     * Attempt a read access for @p req (line address inside).
     *
     * On Miss the line is reserved and an MSHR entry allocated; the caller
     * must forward the request downstream (it checked @p can_inject).
     * On HitReserved the request is merged and completes at fill time.
     */
    AccessOutcome access(ReqHandle req, bool can_inject);

    /**
     * A fill for @p line_addr arrived: validate the line and return the
     * chain of requests waiting on it (primary first, linked through
     * MemRequest::nextWaiting). Callers must read a request's nextWaiting
     * BEFORE completing it — completion frees the request.
     */
    ReqHandle fill(uint64_t line_addr);

    /** True when the line is present and valid (test/bench introspection). */
    bool isHit(uint64_t line_addr) const;

    /**
     * Write path (L2 slices only): probe for @p line_addr and touch it on
     * a valid hit.
     * @retval true the write is absorbed by the cache
     */
    bool writeProbe(uint64_t line_addr);

    /**
     * Write-allocate without a fetch: install @p line_addr as valid so
     * subsequent writes to the line absorb (timing model only — data lives
     * in the functional memory). No-op when every way is reserved or the
     * line already exists.
     */
    void installValid(uint64_t line_addr);

    /**
     * Functional tag warm-up for sampled simulation: make @p line_addr
     * recently-used — touch it when present, otherwise install it valid
     * over the LRU way. No MSHR, no stats, no timing; replaying the
     * fast-forward's address stream through this approximates the tag
     * state a detailed execution of the skipped span would have left.
     */
    void
    warm(uint64_t line_addr)
    {
        if (!writeProbe(line_addr))
            installValid(line_addr);
    }

    const std::string &name() const { return name_; }
    const CacheConfig &config() const { return config_; }

    /** Allocated MSHR entries (timeline sampling, gcl::trace). */
    size_t mshrOccupancy() const { return mshr_.size(); }

    /** Lines currently reserved for in-flight fills (timeline sampling). */
    size_t reservedLines() const;

    /**
     * Serialize the persistent tag-array state (tags, valid bits, LRU
     * stamps and clock). Only legal at a kernel boundary, where the MSHR
     * is empty and no line is reserved — transient state never crosses a
     * checkpoint.
     */
    void save(snap::SnapWriter &out) const;

    /** Restore state captured by save() into a same-geometry cache. */
    void load(snap::SnapReader &in);

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        bool reserved = false;
        uint64_t lru = 0;
    };

    size_t setIndex(uint64_t line_addr) const;
    uint64_t tagOf(uint64_t line_addr) const;

    std::string name_;
    CacheConfig config_;
    MemPools &pools_;
    std::vector<Line> lines_;   //!< sets x assoc, row-major
    uint64_t lruClock_ = 0;
    Mshr mshr_;
};

} // namespace gcl::sim

#endif // GCL_SIM_CACHE_HH
