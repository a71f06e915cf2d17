/**
 * @file
 * `gcl::snap` wire primitives — bounds-checked little-endian buffer I/O.
 *
 * SnapWriter/SnapReader are the byte-level vocabulary the functional
 * prefix's sections are written in (GlobalMemory::save/load and the Gpu's
 * host log and sampling state). They are deliberately header-only and
 * free of any gcl library dependency so a unit can serialize itself
 * without growing a link edge on gcl_snap: only the Snapshot *container*
 * (snapshot.hh) lives in the library proper.
 *
 * Encoding rules:
 *  - all integers are little-endian, fixed width; f64 is the IEEE-754
 *    bit pattern of the double in a u64;
 *  - strings and byte blobs are u64 length + raw bytes;
 *  - there is no in-band typing — reader and writer must agree on the
 *    field sequence, which is what the snapshot schema version guards.
 *
 * A short or malformed read throws SnapIoError. The Snapshot file layer
 * and Gpu::beginResume/applyRestore convert that into a structured
 * SimError{Kind::Snapshot}; unit-level load() code lets it propagate.
 * Element counts are read through count(), which checks them against the
 * bytes left before the caller allocates.
 */

#ifndef GCL_SNAP_IO_HH
#define GCL_SNAP_IO_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace gcl::snap
{

/** Malformed/truncated snapshot bytes (converted to SimError upstream). */
class SnapIoError : public std::runtime_error
{
  public:
    explicit SnapIoError(const std::string &message)
        : std::runtime_error(message)
    {}
};

/** Append-only little-endian byte buffer. */
class SnapWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(uint16_t v)
    {
        appendLe(v, 2);
    }

    void
    u32(uint32_t v)
    {
        appendLe(v, 4);
    }

    void
    u64(uint64_t v)
    {
        appendLe(v, 8);
    }

    void
    i64(int64_t v)
    {
        appendLe(static_cast<uint64_t>(v), 8);
    }

    void
    f64(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void
    bytes(const void *data, size_t n)
    {
        u64(n);
        raw(data, n);
    }

    /** Append @p n bytes with no length prefix. */
    void
    raw(const void *data, size_t n)
    {
        if (n == 0)
            return;  // empty vectors may hand over a null data()
        const auto *p = static_cast<const uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    const std::vector<uint8_t> &buffer() const { return buf_; }
    size_t size() const { return buf_.size(); }

  private:
    void
    appendLe(uint64_t v, unsigned width)
    {
        for (unsigned i = 0; i < width; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    std::vector<uint8_t> buf_;
};

/** Bounds-checked cursor over a serialized byte range (not owning). */
class SnapReader
{
  public:
    SnapReader(const uint8_t *data, size_t size) : data_(data), size_(size)
    {}

    uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    uint16_t
    u16()
    {
        return static_cast<uint16_t>(readLe(2));
    }

    uint32_t
    u32()
    {
        return static_cast<uint32_t>(readLe(4));
    }

    uint64_t
    u64()
    {
        return readLe(8);
    }

    int64_t
    i64()
    {
        return static_cast<int64_t>(readLe(8));
    }

    double
    f64()
    {
        const uint64_t bits = u64();
        double v = 0;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string
    str()
    {
        const uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<size_t>(n));
        pos_ += static_cast<size_t>(n);
        return s;
    }

    /** Read a length-prefixed blob of exactly @p expect bytes into @p out. */
    void
    bytesInto(void *out, size_t expect)
    {
        const uint64_t n = u64();
        if (n != expect)
            throw SnapIoError("blob size mismatch: have " +
                              std::to_string(n) + " bytes, want " +
                              std::to_string(expect));
        need(n);
        std::memcpy(out, data_ + pos_, static_cast<size_t>(n));
        pos_ += static_cast<size_t>(n);
    }

    /**
     * Read a u64 element count whose entries take at least
     * @p min_entry_bytes each, and throw when the bytes left cannot hold
     * that many — so a malformed count fails here, before the caller
     * reserves or resizes for it.
     */
    uint64_t
    count(size_t min_entry_bytes)
    {
        const uint64_t n = u64();
        if (n > remaining() / min_entry_bytes)
            throw SnapIoError("count of " + std::to_string(n) +
                              " entries of at least " +
                              std::to_string(min_entry_bytes) +
                              " bytes overruns the " +
                              std::to_string(remaining()) + " bytes left");
        return n;
    }

    /** Advance past @p n unprefixed bytes, returning their start. */
    const uint8_t *
    rawRead(size_t n)
    {
        need(n);
        const uint8_t *p = data_ + pos_;
        pos_ += n;
        return p;
    }

    size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

  private:
    void
    need(uint64_t n)
    {
        if (n > size_ - pos_)
            throw SnapIoError("truncated snapshot data: need " +
                              std::to_string(n) + " bytes at offset " +
                              std::to_string(pos_) + ", have " +
                              std::to_string(size_ - pos_));
    }

    uint64_t
    readLe(unsigned width)
    {
        need(width);
        uint64_t v = 0;
        for (unsigned i = 0; i < width; ++i)
            v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += width;
        return v;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

/** Incremental CRC-32 (reflected, poly 0xEDB88320 — zlib-compatible). */
inline uint32_t
crc32(uint32_t crc, const void *data, size_t n)
{
    static const auto table = [] {
        std::vector<uint32_t> t(256);
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    const auto *p = static_cast<const uint8_t *>(data);
    crc = ~crc;
    for (size_t i = 0; i < n; ++i)
        crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
    return ~crc;
}

} // namespace gcl::snap

#endif // GCL_SNAP_IO_HH
