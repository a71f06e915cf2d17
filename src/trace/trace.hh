/**
 * @file
 * `gcl::trace` — low-overhead memory-request lifecycle tracing.
 *
 * The simulator's stats (sim/stats.hh) are pre-aggregated scalars; this
 * subsystem records the *individual events* behind them so a single
 * request's journey through coalescer -> L1 -> interconnect -> L2 -> DRAM
 * can be inspected, re-sliced offline, or loaded into Perfetto.
 *
 * Design:
 *  - TraceEvent is a 32-byte POD; a TraceSink is a preallocated buffer
 *    of them. Emitting is a bounds check and a struct store.
 *  - Components hold a `TraceSink *` that is null by default; the
 *    GCL_TRACE macro costs one null branch on the hot path. A null
 *    pointer is the only off switch.
 *  - When the buffer fills, the sink's drain (the streaming Chrome-JSON
 *    writer, typically) receives the buffered events and the buffer
 *    resets, so no event is ever dropped.
 *
 * Event identity: every traced WarpMemOp and MemRequest gets a monotonic
 * id from the sink, so lifecycles are keyed by (warp, pc, request id) and
 * stage durations can be paired offline by id alone.
 */

#ifndef GCL_TRACE_TRACE_HH
#define GCL_TRACE_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace gcl::trace
{

/** What happened. Request-lifecycle kinds are ordered by pipeline depth. */
enum class EventKind : uint8_t
{
    // ---- Warp-op lifecycle (global loads only) ----
    OpIssue,        //!< entered the LD/ST first stage (tIssue)
    OpDone,         //!< all data back, writeback scheduled (tDone)

    // ---- Request lifecycle ----
    ReqL1Access,    //!< one L1 access attempt; outcome in flags (incl.
                    //!< hit-reserved and the three reservation-fail kinds)
    ReqInject,      //!< entered the SM's interconnect injection queue
    ReqRopEnqueue,  //!< popped by the memory partition into the ROP pipe
    ReqL2Access,    //!< L2 slice access attempt; outcome in flags
    ReqDramEnqueue, //!< missed L2, queued on the partition's DRAM channel
    ReqL2Done,      //!< data ready at the partition (hit or fill)
    ReqRespDepart,  //!< response left the partition's queue
    ReqComplete,    //!< data back at the SM / writeback ready

    // ---- Coalescer ----
    Coalesce,       //!< one warp op coalesced; lanes/lines packed in addr

    // ---- Cycle-sampled timeline ----
    Counter,        //!< id = CounterId, addr = value
};

const char *toString(EventKind kind);

/** Cycle-sampled occupancy/queue-depth series (EventKind::Counter). */
enum class CounterId : uint8_t
{
    ResidentCtas,     //!< CTAs resident across all SMs
    ActiveWarps,      //!< non-retired warps across all SMs
    LdstQueued,       //!< warp memory ops queued in the LD/ST units
    L1MshrOccupancy,  //!< allocated L1 MSHR entries across all SMs
    IcntReqQueued,    //!< requests inside the request network
    IcntRespQueued,   //!< responses inside the response network
    RopQueued,        //!< requests in the partitions' ROP pipelines
    DramQueued,       //!< requests queued on the DRAM channels
    NumCounters,
};

const char *toString(CounterId id);

// Bit layout of TraceEvent::flags.
constexpr uint8_t kFlagNonDet = 1u << 0;
constexpr uint8_t kFlagWrite = 1u << 1;
constexpr uint8_t kFlagAtomic = 1u << 2;
// Bits 4..7 hold (AccessOutcome + 1); 0 means "no outcome attached".
constexpr unsigned kOutcomeShift = 4;

constexpr uint8_t
packOutcome(unsigned outcome)
{
    return static_cast<uint8_t>((outcome + 1) << kOutcomeShift);
}

/** Outcome carried by @p flags, or -1 when none was attached. */
constexpr int
unpackOutcome(uint8_t flags)
{
    return static_cast<int>(flags >> kOutcomeShift) - 1;
}

/** One traced event. POD, 32 bytes. */
struct TraceEvent
{
    uint64_t cycle = 0;  //!< simulated cycle of the event
    uint64_t id = 0;     //!< request/op id (CounterId for Counter events)
    uint64_t addr = 0;   //!< line address / counter value / packed payload
    uint32_t pc = 0;     //!< owning warp op's pc (0 when not applicable)
    int16_t unit = -1;   //!< SM or partition id
    EventKind kind = EventKind::OpIssue;
    uint8_t flags = 0;
};

static_assert(sizeof(TraceEvent) == 32, "TraceEvent is sized for the buffer");

/**
 * Preallocated buffer of trace events that hands them to a drain.
 *
 * Not thread-safe by design: one simulation is single-threaded, and under
 * the parallel sweep every run owns a *private* sink (see
 * workloads::SimContext), so a sink is only ever touched by the thread
 * confining its run. Use setIdBase() to give concurrent runs disjoint id
 * ranges so their events stay distinguishable after merging.
 */
class TraceSink
{
  public:
    using DrainFn = std::function<void(const TraceEvent *events, size_t n)>;

    /**
     * @p drain receives the buffered events, oldest first, whenever the
     * buffer fills and on flush().
     */
    explicit TraceSink(DrainFn drain, size_t capacity = kDefaultCapacity);

    /** Append one event; drains the buffer first when it is full. */
    void
    emit(EventKind kind, uint64_t cycle, uint64_t id, uint64_t addr,
         uint32_t pc = 0, int16_t unit = -1, uint8_t flags = 0)
    {
        if (count_ == buf_.size())
            flush();
        TraceEvent &ev = buf_[count_];
        ev.cycle = cycle;
        ev.id = id;
        ev.addr = addr;
        ev.pc = pc;
        ev.unit = unit;
        ev.kind = kind;
        ev.flags = flags;
        ++count_;
        ++emitted_;
    }

    /** Hand the buffered events to the drain and empty the buffer. */
    void flush();

    /** Monotonic ids for traced ops and requests (0 is "untraced"). */
    uint64_t newId() { return ++lastId_; }

    /**
     * Start id allocation at @p base + 1. Chrome trace-event async slices
     * are paired by (cat, id) *across* processes, so per-run sinks that
     * feed one merged trace must carve out disjoint id ranges.
     */
    void setIdBase(uint64_t base) { lastId_ = base; }

    size_t size() const { return count_; }
    uint64_t emitted() const { return emitted_; }

    static constexpr size_t kDefaultCapacity = size_t{1} << 20;

  private:
    std::vector<TraceEvent> buf_;
    size_t count_ = 0;      //!< buffered events
    uint64_t emitted_ = 0;
    uint64_t lastId_ = 0;
    DrainFn drain_;
};

} // namespace gcl::trace

/**
 * Hot-path emission macro: one null branch.
 *
 * Usage: GCL_TRACE(sink_ptr, EventKind::ReqInject, now, req->id, ...);
 */
#define GCL_TRACE(sink, ...) \
    do { \
        if (auto *gcl_trace_sink_ = (sink)) \
            gcl_trace_sink_->emit(__VA_ARGS__); \
    } while (0)
/** True when the sink would record events (guards id assignment etc.). */
#define GCL_TRACE_ACTIVE(sink) ((sink) != nullptr)

#endif // GCL_TRACE_TRACE_HH
