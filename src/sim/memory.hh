/**
 * @file
 * Functional memory: the device's flat global address space plus a simple
 * bump allocator, and the per-CTA shared-memory scratchpads.
 *
 * Functional state is completely separate from the timing model: caches in
 * the timing model hold tags only. Loads read this memory at issue time
 * (timing-directed functional execution; DESIGN.md decision 1).
 */

#ifndef GCL_SIM_MEMORY_HH
#define GCL_SIM_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace gcl::sim
{

/** Sparse, paged, byte-addressable functional memory. */
class GlobalMemory
{
  public:
    GlobalMemory() = default;
    /** Deep copies: every resident page is duplicated. */
    GlobalMemory(const GlobalMemory &other);
    GlobalMemory &operator=(const GlobalMemory &other);
    GlobalMemory(GlobalMemory &&) = default;
    GlobalMemory &operator=(GlobalMemory &&) = default;

    /** Read @p size bytes (1/2/4/8) at @p addr, zero-extended. */
    uint64_t read(uint64_t addr, unsigned size) const;

    /** Write the low @p size bytes of @p value at @p addr. */
    void write(uint64_t addr, uint64_t value, unsigned size);

    /** Bulk copy helpers for the host-side API. */
    void readBlock(uint64_t addr, void *dst, size_t size) const;
    void writeBlock(uint64_t addr, const void *src, size_t size);

    /** Device malloc: bump allocation, 256-byte aligned. */
    uint64_t allocate(size_t size);

    /** Number of resident pages (for tests). */
    size_t numPages() const { return pages_.size(); }

  private:
    static constexpr uint64_t kPageBits = 12;
    static constexpr uint64_t kPageSize = 1ull << kPageBits;

    uint8_t *pageFor(uint64_t addr);
    const uint8_t *pageForRead(uint64_t addr) const;

    mutable std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages_;
    uint64_t allocTop_ = 0x10000000ull;  //!< device heap base
};

/** Per-CTA shared-memory scratchpad. */
class SharedMemory
{
  public:
    explicit SharedMemory(uint32_t size) : data_(size, 0) {}

    uint64_t read(uint64_t addr, unsigned size) const;
    void write(uint64_t addr, uint64_t value, unsigned size);

    uint32_t size() const { return static_cast<uint32_t>(data_.size()); }

  private:
    std::vector<uint8_t> data_;
};

} // namespace gcl::sim

#endif // GCL_SIM_MEMORY_HH
