/**
 * @file
 * Small bit-manipulation helpers shared across the simulator.
 */

#ifndef GCL_UTIL_BITUTIL_HH
#define GCL_UTIL_BITUTIL_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "logging.hh"

namespace gcl
{

/** True iff @p v is a power of two (zero is not). */
constexpr bool
isPowerOf2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2; @p v must be non-zero. */
constexpr unsigned
floorLog2(uint64_t v)
{
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/** Ceil of log2; @p v must be non-zero. */
constexpr unsigned
ceilLog2(uint64_t v)
{
    return v <= 1 ? 0 : floorLog2(v - 1) + 1;
}

/** Round @p v up to the next multiple of power-of-two @p align. */
constexpr uint64_t
roundUp(uint64_t v, uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Round @p v down to a multiple of power-of-two @p align. */
constexpr uint64_t
roundDown(uint64_t v, uint64_t align)
{
    return v & ~(align - 1);
}

/** Integer ceiling division. */
constexpr uint64_t
divCeil(uint64_t a, uint64_t b)
{
    return (a + b - 1) / b;
}

// ---- Bitsets stored as a vector of 64-bit words, bit i in word i / 64 ----

inline bool
testBit(const std::vector<uint64_t> &words, size_t i)
{
    return (words[i / 64] >> (i % 64)) & 1;
}

inline void
setBit(std::vector<uint64_t> &words, size_t i)
{
    words[i / 64] |= uint64_t{1} << (i % 64);
}

inline void
clearBit(std::vector<uint64_t> &words, size_t i)
{
    words[i / 64] &= ~(uint64_t{1} << (i % 64));
}

inline bool
noBitSet(const std::vector<uint64_t> &words)
{
    for (const uint64_t word : words)
        if (word != 0)
            return false;
    return true;
}

namespace detail
{

template <bool kClear, typename Fn>
void
forEachBit(const std::vector<uint64_t> &words, size_t first, size_t last,
           Fn &fn)
{
    for (size_t w = first / 64; w * 64 < last; ++w) {
        uint64_t bits = kClear ? ~words[w] : words[w];
        if (w == first / 64)
            bits &= ~uint64_t{0} << (first % 64);
        if (last - w * 64 < 64)
            bits &= (uint64_t{1} << (last - w * 64)) - 1;
        for (; bits != 0; bits &= bits - 1)
            fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
    }
}

} // namespace detail

/**
 * Call @p fn(i) for every set bit i in [@p first, @p last) of the bitset
 * @p words, in ascending order. Each word is read once, when the walk
 * reaches it, so @p fn may flip bits of the word being walked without
 * disturbing the walk (the flip is not seen by it).
 */
template <typename Fn>
void
forEachSetBit(const std::vector<uint64_t> &words, size_t first, size_t last,
              Fn &&fn)
{
    detail::forEachBit<false>(words, first, last, fn);
}

/** forEachSetBit over the clear bits of [@p first, @p last). */
template <typename Fn>
void
forEachClearBit(const std::vector<uint64_t> &words, size_t first,
                size_t last, Fn &&fn)
{
    detail::forEachBit<true>(words, first, last, fn);
}

} // namespace gcl

#endif // GCL_UTIL_BITUTIL_HH
