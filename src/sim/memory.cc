#include "memory.hh"

#include <algorithm>

#include "guard/sim_error.hh"
#include "util/bitutil.hh"
#include "util/logging.hh"

namespace gcl::sim
{

GlobalMemory::GlobalMemory(const GlobalMemory &other)
{
    *this = other;
}

GlobalMemory &
GlobalMemory::operator=(const GlobalMemory &other)
{
    if (this == &other)
        return *this;
    pages_.clear();
    pages_.reserve(other.pages_.size());
    for (const auto &[number, page] : other.pages_) {
        auto copy = std::make_unique<uint8_t[]>(kPageSize);
        std::memcpy(copy.get(), page.get(), kPageSize);
        pages_.emplace(number, std::move(copy));
    }
    allocTop_ = other.allocTop_;
    return *this;
}

uint8_t *
GlobalMemory::pageFor(uint64_t addr)
{
    auto &page = pages_[addr >> kPageBits];
    if (!page) {
        page = std::make_unique<uint8_t[]>(kPageSize);
        std::memset(page.get(), 0, kPageSize);
    }
    return page.get();
}

const uint8_t *
GlobalMemory::pageForRead(uint64_t addr) const
{
    auto it = pages_.find(addr >> kPageBits);
    return it == pages_.end() ? nullptr : it->second.get();
}

uint64_t
GlobalMemory::read(uint64_t addr, unsigned size) const
{
    gcl_sim_check(size == 1 || size == 2 || size == 4 || size == 8,
                  "gmem", 0, "bad access size ", size);
    // Accesses from the IR are naturally aligned, so they never straddle a
    // page; readBlock handles arbitrary spans.
    if ((addr & (size - 1)) != 0)
        gcl_sim_error(SimError::Kind::Workload, "gmem", 0,
                      "misaligned read of ", size, " bytes at ", addr);
    const uint8_t *page = pageForRead(addr);
    if (!page)
        return 0;  // untouched memory reads as zero
    uint64_t value = 0;
    std::memcpy(&value, page + (addr & (kPageSize - 1)), size);
    return value;
}

void
GlobalMemory::write(uint64_t addr, uint64_t value, unsigned size)
{
    gcl_sim_check(size == 1 || size == 2 || size == 4 || size == 8,
                  "gmem", 0, "bad access size ", size);
    if ((addr & (size - 1)) != 0)
        gcl_sim_error(SimError::Kind::Workload, "gmem", 0,
                      "misaligned write of ", size, " bytes at ", addr);
    uint8_t *page = pageFor(addr);
    std::memcpy(page + (addr & (kPageSize - 1)), &value, size);
}

void
GlobalMemory::readBlock(uint64_t addr, void *dst, size_t size) const
{
    auto *out = static_cast<uint8_t *>(dst);
    while (size > 0) {
        const uint64_t in_page = kPageSize - (addr & (kPageSize - 1));
        const size_t chunk = std::min<size_t>(size, in_page);
        const uint8_t *page = pageForRead(addr);
        if (page)
            std::memcpy(out, page + (addr & (kPageSize - 1)), chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        size -= chunk;
    }
}

void
GlobalMemory::writeBlock(uint64_t addr, const void *src, size_t size)
{
    const auto *in = static_cast<const uint8_t *>(src);
    while (size > 0) {
        const uint64_t in_page = kPageSize - (addr & (kPageSize - 1));
        const size_t chunk = std::min<size_t>(size, in_page);
        uint8_t *page = pageFor(addr);
        std::memcpy(page + (addr & (kPageSize - 1)), in, chunk);
        addr += chunk;
        in += chunk;
        size -= chunk;
    }
}

uint64_t
GlobalMemory::allocate(size_t size)
{
    if (size == 0)
        gcl_sim_error(SimError::Kind::Workload, "gmem", 0,
                      "zero-sized device allocation");
    const uint64_t addr = allocTop_;
    allocTop_ = roundUp(allocTop_ + size, 256);
    return addr;
}

uint64_t
SharedMemory::read(uint64_t addr, unsigned size) const
{
    if (addr + size > data_.size())
        gcl_sim_error(SimError::Kind::Workload, "smem", 0,
                      "shared-memory read out of bounds: ", addr, "+", size,
                      " > ", data_.size());
    uint64_t value = 0;
    std::memcpy(&value, data_.data() + addr, size);
    return value;
}

void
SharedMemory::write(uint64_t addr, uint64_t value, unsigned size)
{
    if (addr + size > data_.size())
        gcl_sim_error(SimError::Kind::Workload, "smem", 0,
                      "shared-memory write out of bounds: ", addr, "+",
                      size, " > ", data_.size());
    std::memcpy(data_.data() + addr, &value, size);
}

} // namespace gcl::sim
