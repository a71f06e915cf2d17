#include "cache.hh"

#include "guard/sim_error.hh"
#include "util/bitutil.hh"
#include "util/logging.hh"

namespace gcl::sim
{

std::string
toString(AccessOutcome outcome)
{
    switch (outcome) {
      case AccessOutcome::Hit: return "hit";
      case AccessOutcome::HitReserved: return "hit_reserved";
      case AccessOutcome::Miss: return "miss";
      case AccessOutcome::FailTag: return "fail_tag";
      case AccessOutcome::FailMshr: return "fail_mshr";
      case AccessOutcome::FailIcnt: return "fail_icnt";
    }
    return "?";
}

Mshr::Mshr(unsigned num_entries, unsigned max_merge, MemPools &pools,
           ReqHandle MemRequest::*link)
    : numEntries_(num_entries), maxMerge_(max_merge), pools_(pools),
      link_(link)
{
    // Size the probe table at under-half load so linear probe runs stay
    // short even with every entry allocated.
    size_t capacity = 4;
    while (capacity < 2 * static_cast<size_t>(num_entries))
        capacity *= 2;
    table_.assign(capacity, Entry{});
    tableMask_ = capacity - 1;
    tableShift_ = 64 - floorLog2(capacity);
}

size_t
Mshr::slotOf(uint64_t line_addr) const
{
    // Fibonacci hashing: the product's high bits mix every bit of the
    // address. Its low bits would not — a line-aligned address keeps its
    // zero low bits through the multiply, homing every line at slot 0.
    return static_cast<size_t>((line_addr * UINT64_C(0x9E3779B97F4A7C15)) >>
                               tableShift_);
}

int
Mshr::find(uint64_t line_addr) const
{
    size_t slot = slotOf(line_addr);
    while (table_[slot].count != 0) {
        if (table_[slot].lineAddr == line_addr)
            return static_cast<int>(slot);
        slot = (slot + 1) & tableMask_;
    }
    return -1;
}

bool
Mshr::canMerge(uint64_t line_addr) const
{
    int slot = find(line_addr);
    return slot >= 0 && table_[slot].count < maxMerge_;
}

void
Mshr::allocate(uint64_t line_addr, ReqHandle req)
{
    gcl_sim_check(!full(), "mshr", 0, "allocate when full");
    gcl_sim_check(find(line_addr) < 0, "mshr", 0,
                  "double allocate for line ", line_addr);
    size_t slot = slotOf(line_addr);
    while (table_[slot].count != 0)
        slot = (slot + 1) & tableMask_;
    Entry &entry = table_[slot];
    entry.lineAddr = line_addr;
    entry.head = req;
    entry.tail = req;
    entry.count = 1;
    pools_.reqs.get(req).*link_ = kNullHandle;
    ++count_;
}

void
Mshr::merge(uint64_t line_addr, ReqHandle req)
{
    int slot = find(line_addr);
    gcl_sim_check(slot >= 0, "mshr", 0,
                  "merge without an entry for line ", line_addr);
    Entry &entry = table_[slot];
    gcl_sim_check(entry.count < maxMerge_, "mshr", 0,
                  "merge list overflow for line ", line_addr);
    pools_.reqs.get(entry.tail).*link_ = req;
    pools_.reqs.get(req).*link_ = kNullHandle;
    entry.tail = req;
    ++entry.count;
}

ReqHandle
Mshr::release(uint64_t line_addr)
{
    int found = find(line_addr);
    gcl_sim_check(found >= 0, "mshr", 0,
                  "release without an entry for line ", line_addr);
    ReqHandle head = table_[static_cast<size_t>(found)].head;

    // Backward-shift deletion keeps the table tombstone-free: close the
    // hole by moving back any later entry in the probe run that hashes at
    // or before the hole.
    size_t hole = static_cast<size_t>(found);
    size_t slot = (hole + 1) & tableMask_;
    while (table_[slot].count != 0) {
        size_t home = slotOf(table_[slot].lineAddr);
        // Is `home` outside the (hole, slot] circular range, i.e. would
        // moving this entry into the hole keep it reachable from home?
        if (((slot - home) & tableMask_) >= ((slot - hole) & tableMask_)) {
            table_[hole] = table_[slot];
            hole = slot;
        }
        slot = (slot + 1) & tableMask_;
    }
    table_[hole] = Entry{};
    --count_;
    return head;
}

Cache::Cache(std::string name, const CacheConfig &config, MemPools &pools,
             ReqHandle MemRequest::*link)
    : name_(std::move(name)), config_(config), pools_(pools),
      mshr_(config.mshrEntries, config.mshrMaxMerge, pools, link)
{
    // Reachable through config overrides (l1_line=..., l1_size=...), so a
    // bad geometry is a recoverable config error, not a process abort.
    gcl_sim_check(isPowerOf2(config_.lineBytes), name_, 0,
                  "line size must be a power of two, got ",
                  config_.lineBytes);
    gcl_sim_check(config_.numSets() > 0 && isPowerOf2(config_.numSets()),
                  name_, 0,
                  "cache geometry must give a power-of-two set count, got ",
                  config_.numSets());
    lineShift_ = floorLog2(config_.lineBytes);
    setMask_ = config_.numSets() - 1;
    tagShift_ = lineShift_ + floorLog2(config_.numSets());
    lines_.assign(static_cast<size_t>(config_.numSets()) * config_.assoc,
                  Line{});
}

AccessOutcome
Cache::access(ReqHandle req, bool can_inject)
{
    const uint64_t line_addr = pools_.reqs.get(req).lineAddr;
    const size_t set = setIndex(line_addr);
    const uint64_t tag = tagOf(line_addr);
    Line *set_base = &lines_[set * config_.assoc];

    // Probe.
    for (unsigned way = 0; way < config_.assoc; ++way) {
        Line &line = set_base[way];
        if (line.tag != tag || !(line.valid || line.reserved))
            continue;
        if (line.valid) {
            line.lru = ++lruClock_;
            return AccessOutcome::Hit;
        }
        // Reserved: the line's fill is in flight.
        if (!mshr_.canMerge(line_addr))
            return AccessOutcome::FailMshr;
        mshr_.merge(line_addr, req);
        return AccessOutcome::HitReserved;
    }

    // Miss path: need an evictable way, an MSHR entry, and downstream
    // buffer space — in that order, matching the paper's taxonomy.
    int victim = -1;
    uint64_t victim_lru = ~uint64_t{0};
    for (unsigned way = 0; way < config_.assoc; ++way) {
        Line &line = set_base[way];
        if (line.reserved)
            continue;
        if (!line.valid) {
            victim = static_cast<int>(way);
            break;
        }
        if (line.lru < victim_lru) {
            victim_lru = line.lru;
            victim = static_cast<int>(way);
        }
    }
    if (victim < 0)
        return AccessOutcome::FailTag;
    if (mshr_.full())
        return AccessOutcome::FailMshr;
    if (!can_inject)
        return AccessOutcome::FailIcnt;

    Line &line = set_base[victim];
    line.tag = tag;
    line.valid = false;
    line.reserved = true;
    line.lru = ++lruClock_;
    mshr_.allocate(line_addr, req);
    return AccessOutcome::Miss;
}

ReqHandle
Cache::fill(uint64_t line_addr)
{
    const size_t set = setIndex(line_addr);
    const uint64_t tag = tagOf(line_addr);
    Line *set_base = &lines_[set * config_.assoc];
    for (unsigned way = 0; way < config_.assoc; ++way) {
        Line &line = set_base[way];
        if (line.tag == tag && line.reserved) {
            line.reserved = false;
            line.valid = true;
            line.lru = ++lruClock_;
            return mshr_.release(line_addr);
        }
    }
    gcl_sim_error(SimError::Kind::Invariant, name_, 0,
                  "fill for a line that is not reserved: ", line_addr);
}

bool
Cache::writeProbe(uint64_t line_addr)
{
    const size_t set = setIndex(line_addr);
    const uint64_t tag = tagOf(line_addr);
    Line *set_base = &lines_[set * config_.assoc];
    for (unsigned way = 0; way < config_.assoc; ++way) {
        Line &line = set_base[way];
        if (line.tag == tag && line.valid) {
            line.lru = ++lruClock_;
            return true;
        }
    }
    return false;
}

void
Cache::installValid(uint64_t line_addr)
{
    const size_t set = setIndex(line_addr);
    const uint64_t tag = tagOf(line_addr);
    Line *set_base = &lines_[set * config_.assoc];

    int victim = -1;
    uint64_t victim_lru = ~uint64_t{0};
    for (unsigned way = 0; way < config_.assoc; ++way) {
        Line &line = set_base[way];
        if (line.tag == tag && (line.valid || line.reserved))
            return;  // already present (or in flight)
        if (line.reserved)
            continue;
        if (!line.valid) {
            victim = static_cast<int>(way);
            break;
        }
        if (line.lru < victim_lru) {
            victim_lru = line.lru;
            victim = static_cast<int>(way);
        }
    }
    if (victim < 0)
        return;  // every way pinned by in-flight fills; skip the install

    Line &line = set_base[victim];
    line.tag = tag;
    line.valid = true;
    line.reserved = false;
    line.lru = ++lruClock_;
}

size_t
Cache::reservedLines() const
{
    size_t reserved = 0;
    for (const Line &line : lines_)
        if (line.reserved)
            ++reserved;
    return reserved;
}

bool
Cache::isHit(uint64_t line_addr) const
{
    const size_t set = setIndex(line_addr);
    const uint64_t tag = tagOf(line_addr);
    const Line *set_base = &lines_[set * config_.assoc];
    for (unsigned way = 0; way < config_.assoc; ++way)
        if (set_base[way].tag == tag && set_base[way].valid)
            return true;
    return false;
}

} // namespace gcl::sim
