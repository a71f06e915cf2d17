#include "snapshot.hh"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "guard/sim_error.hh"
#include "util/file.hh"

namespace gcl::snap
{

namespace
{

[[noreturn]] void
snapError(const std::string &message)
{
    gcl_sim_error(SimError::Kind::Snapshot, "snap", 0, message);
}

} // namespace

std::string
hexFingerprint(uint64_t fingerprint)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return buf;
}

SnapWriter &
Snapshot::section(const std::string &name)
{
    for (auto &[existing, writer] : sections_)
        if (existing == name)
            return writer;
    sections_.emplace_back(name, SnapWriter{});
    return sections_.back().second;
}

bool
Snapshot::has(const std::string &name) const
{
    for (const auto &[existing, writer] : sections_)
        if (existing == name)
            return true;
    return false;
}

SnapReader
Snapshot::reader(const std::string &name) const
{
    for (const auto &[existing, writer] : sections_)
        if (existing == name)
            return SnapReader(writer.buffer().data(), writer.size());
    snapError("missing snapshot section '" + name + "'");
}

std::vector<uint8_t>
Snapshot::serialize() const
{
    SnapWriter out;
    for (char c : kMagic)
        out.u8(static_cast<uint8_t>(c));
    out.u32(kSchemaVersion);
    out.u64(configFingerprint);
    out.str(machineName);
    out.str(app);
    out.u64(kernelIndex);
    out.u64(cycle);
    out.u32(static_cast<uint32_t>(meta.size()));
    for (const auto &[key, value] : meta) {
        out.str(key);
        out.str(value);
    }
    out.u32(static_cast<uint32_t>(sections_.size()));
    for (const auto &[name, writer] : sections_) {
        out.str(name);
        out.bytes(writer.buffer().data(), writer.size());
    }
    std::vector<uint8_t> bytes = out.buffer();
    const uint32_t crc = crc32(0, bytes.data(), bytes.size());
    for (unsigned i = 0; i < 4; ++i)
        bytes.push_back(static_cast<uint8_t>(crc >> (8 * i)));
    return bytes;
}

void
Snapshot::writeFile(const std::string &path) const
{
    const std::vector<uint8_t> bytes = serialize();
    std::string error;
    if (!atomicWriteFile(
            path,
            std::string_view(reinterpret_cast<const char *>(bytes.data()),
                             bytes.size()),
            &error))
        snapError("cannot write snapshot " + path + ": " + error);
}

Snapshot
Snapshot::deserialize(const std::vector<uint8_t> &data)
{
    if (data.size() < sizeof(kMagic) + 4 + 4)
        snapError("snapshot too short to be valid (" +
                  std::to_string(data.size()) + " bytes)");
    if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0)
        snapError("bad magic: not a gcl snapshot file");

    // Validate the trailing CRC before trusting any field.
    const size_t body = data.size() - 4;
    uint32_t stored = 0;
    for (unsigned i = 0; i < 4; ++i)
        stored |= static_cast<uint32_t>(data[body + i]) << (8 * i);
    const uint32_t computed = crc32(0, data.data(), body);
    if (stored != computed)
        snapError("CRC mismatch: stored " + std::to_string(stored) +
                  ", computed " + std::to_string(computed) +
                  " (truncated or corrupted snapshot)");

    try {
        SnapReader in(data.data(), body);
        for (size_t i = 0; i < sizeof(kMagic); ++i)
            in.u8();
        const uint32_t schema = in.u32();
        if (schema != kSchemaVersion)
            snapError("snapshot schema v" + std::to_string(schema) +
                      " is not readable by this build (wants v" +
                      std::to_string(kSchemaVersion) + ")");
        Snapshot snap;
        snap.configFingerprint = in.u64();
        snap.machineName = in.str();
        snap.app = in.str();
        snap.kernelIndex = in.u64();
        snap.cycle = in.u64();
        const uint32_t nmeta = in.u32();
        for (uint32_t i = 0; i < nmeta; ++i) {
            std::string key = in.str();
            std::string value = in.str();
            snap.meta.emplace_back(std::move(key), std::move(value));
        }
        const uint32_t nsections = in.u32();
        for (uint32_t i = 0; i < nsections; ++i) {
            const std::string name = in.str();
            const uint64_t size = in.u64();
            if (size > in.remaining())
                throw SnapIoError("section '" + name + "' overruns file");
            SnapWriter &writer = snap.section(name);
            writer.raw(in.rawRead(static_cast<size_t>(size)),
                       static_cast<size_t>(size));
        }
        if (!in.atEnd())
            throw SnapIoError(std::to_string(in.remaining()) +
                              " trailing bytes after last section");
        return snap;
    } catch (const SnapIoError &e) {
        snapError(std::string("malformed snapshot: ") + e.what());
    }
}

Snapshot
Snapshot::readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        snapError("cannot open snapshot " + path);
    std::vector<uint8_t> data{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
    if (!in.good() && !in.eof())
        snapError("read error on snapshot " + path);
    return deserialize(data);
}

} // namespace gcl::snap
