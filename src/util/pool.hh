/**
 * @file
 * Slab-backed object pool handing out stable 32-bit handles.
 *
 * The simulator's hottest allocation is one object per coalesced memory
 * request plus one per warp memory op — millions per run — and a
 * refcounted shared_ptr per unit of work puts an atomic inc/dec and a
 * malloc/free on the per-request path. HandlePool replaces that with:
 *
 *  - slab storage: objects live in fixed-size slabs that are never moved
 *    or freed until the pool dies, so a handle dereferences to a stable
 *    address (two loads, no hashing);
 *  - a LIFO free list: alloc/free are O(1) pointer pops, and a just-freed
 *    slot is re-used while still cache-hot;
 *  - 32-bit handles: half the size of a pointer, so queues of in-flight
 *    requests (MSHR chains, interconnect buffers) pack twice as dense.
 *
 * A handle packs {generation, slot}. The generation is bumped on every
 * free; in checked builds (GCL_POOL_CHECKED, wired into the ASan preset,
 * or any !NDEBUG build) every dereference verifies the generation so a
 * use-after-free or double-free panics at the offending access instead of
 * silently reading a recycled object. Release builds skip the check — the
 * layout is identical, only the verification is compiled out.
 *
 * Ownership is single-owner by convention (DESIGN.md "Hot path"): exactly
 * one component frees a given handle.
 *
 * Concurrency: none. A pool is thread-confined, like everything else one
 * SimContext owns.
 */

#ifndef GCL_UTIL_POOL_HH
#define GCL_UTIL_POOL_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "logging.hh"

#if !defined(NDEBUG) && !defined(GCL_POOL_CHECKED)
#define GCL_POOL_CHECKED 1
#endif

namespace gcl
{

/**
 * Pool handle: 0 is the null handle; otherwise bits [0,20) hold slot+1
 * and bits [20,32) a 12-bit wrap-around generation.
 */
using PoolHandle = uint32_t;
inline constexpr PoolHandle kNullHandle = 0;

template <typename T>
class HandlePool
{
  public:
    static constexpr unsigned kSlotBits = 20;
    static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
    static constexpr uint32_t kGenMask = 0xfffu;
    /** Slot field stores slot+1, so the largest usable slot is mask-2. */
    static constexpr size_t kMaxSlots = kSlotMask - 1;
    static constexpr size_t kSlabSize = 4096;  //!< objects per slab
    static constexpr size_t kMaxSlabs =
        (kMaxSlots + kSlabSize - 1) / kSlabSize;

    explicit HandlePool(std::string name) : name_(std::move(name)) {}

    HandlePool(const HandlePool &) = delete;
    HandlePool &operator=(const HandlePool &) = delete;

    /**
     * Take a default-initialized object from the pool.
     * @throws std::length_error when the pool is exhausted (the slot field
     * of the handle encoding bounds the population; util cannot depend on
     * gcl::guard's SimError, and callers treat this as a fatal run error).
     */
    PoolHandle
    alloc()
    {
        uint32_t slot;
        if (!freeList_.empty()) {
            slot = freeList_.back();
            freeList_.pop_back();
        } else {
            if (slotCount_ >= kMaxSlots)
                throw std::length_error(
                    "HandlePool '" + name_ + "' exhausted (" +
                    std::to_string(kMaxSlots) + " live objects)");
            slot = slotCount_++;
            if (!slabs_[slot / kSlabSize])
                slabs_[slot / kSlabSize] = std::make_unique<Slab>();
        }
        ++live_;
        Slab &slab = *slabs_[slot / kSlabSize];
        const uint32_t gen = slab.gen[slot % kSlabSize];
#if GCL_POOL_CHECKED
        slab.gen[slot % kSlabSize] = gen | kLiveBit;
#endif
        new (&slab.slots[slot % kSlabSize].object) T{};
        return ((gen & kGenMask) << kSlotBits) | (slot + 1);
    }

    /** Return @p handle's object to the pool; the handle becomes stale. */
    void
    free(PoolHandle handle)
    {
        const uint32_t slot = check(handle);
        Slab &slab = *slabs_[slot / kSlabSize];
        slab.slots[slot % kSlabSize].object.~T();
        // Bump the generation so stale handles are detectable; skip the
        // value that would make a recycled handle equal a historic one
        // only after the 12-bit wrap (good enough for a debug net).
        slab.gen[slot % kSlabSize] =
            (slab.gen[slot % kSlabSize] + 1) & kGenMask;
        freeList_.push_back(slot);
        --live_;
    }

    T &
    get(PoolHandle handle)
    {
        const uint32_t slot = check(handle);
        return slabs_[slot / kSlabSize]->slots[slot % kSlabSize].object;
    }

    const T &
    get(PoolHandle handle) const
    {
        const uint32_t slot = check(handle);
        return slabs_[slot / kSlabSize]->slots[slot % kSlabSize].object;
    }

    /** Objects currently checked out. */
    size_t live() const { return live_; }

    /** High-water slot count (never shrinks; sizing diagnostics). */
    size_t capacity() const { return slotCount_; }

    const std::string &name() const { return name_; }

  private:
    /** Uninitialized storage: objects are constructed/destroyed per use. */
    struct Slot
    {
        union {
            T object;
        };
        Slot() {}   // NOLINT: storage only, object lifetime is manual
        ~Slot() {}  // NOLINT
    };

    /** Storage plus its slots' generations, allocated as one unit. */
    struct Slab
    {
        Slot slots[kSlabSize];
        uint32_t gen[kSlabSize];  //!< per-slot generation (+ live bit)
    };

    /** Live flag kept outside the handle bits (checked builds only). */
    static constexpr uint32_t kLiveBit = 0x8000'0000u;

    uint32_t
    check(PoolHandle handle) const
    {
        const uint32_t slot = (handle & kSlotMask) - 1;
#if GCL_POOL_CHECKED
        gcl_assert(handle != kNullHandle,
                   "pool '", name_, "': null handle dereferenced");
        gcl_assert(slot < kMaxSlots && slabs_[slot / kSlabSize] != nullptr,
                   "pool '", name_, "': handle slot ", slot,
                   " out of range");
        const uint32_t gen = slabs_[slot / kSlabSize]->gen[slot % kSlabSize];
        gcl_assert((gen & kLiveBit) != 0,
                   "pool '", name_, "': stale handle (slot ", slot,
                   " is free — use-after-free or double-free)");
        gcl_assert((gen & kGenMask) == ((handle >> kSlotBits) & kGenMask),
                   "pool '", name_, "': stale handle generation for slot ",
                   slot);
#endif
        return slot;
    }

    std::string name_;
    /** Fixed-size slab directory (never resized). */
    std::unique_ptr<Slab> slabs_[kMaxSlabs];
    std::vector<uint32_t> freeList_;
    uint32_t slotCount_ = 0;
    size_t live_ = 0;
};

} // namespace gcl

#endif // GCL_UTIL_POOL_HH
