/**
 * @file
 * Single-channel GDDR5-like DRAM model: FCFS service with a fixed access
 * latency and a per-burst channel occupancy, behind a bounded queue.
 *
 * The bounded queue gives backpressure into the L2 (modeling DRAM-side
 * congestion), and the serial burst occupancy makes heavily-loaded channels
 * slower — the source of the "imbalanced service time in memory partitions"
 * the paper reports in Figs 5 and 7.
 *
 * Machine descriptions can additionally enable an open-row model
 * (`-dram_row_bytes` > 0): the channel keeps one open row per bank, and a
 * request that hits a different row pays `-dram_act_latency` extra cycles
 * of both occupancy and access latency (precharge + activate). With
 * `dram_row_bytes 0` — the compiled default — the arithmetic is exactly
 * the fixed-latency model above.
 */

#ifndef GCL_SIM_DRAM_HH
#define GCL_SIM_DRAM_HH

#include <deque>
#include <vector>

#include "config.hh"
#include "mem_request.hh"
#include "trace/trace.hh"

namespace gcl::sim
{

/** One DRAM channel attached to one memory partition. */
class DramChannel
{
  public:
    DramChannel(const GpuConfig &config, MemPools &pools)
        : config_(config), pools_(pools)
    {}

    /** True when the request queue has room. */
    bool canAccept() const { return queue_.size() < config_.dramQueueDepth; }

    /** Enqueue a request; its ready time is computed FCFS at push. */
    void push(ReqHandle req, Cycle now);

    /** True when the head request's data is ready. */
    bool headReady(Cycle now) const;

    /**
     * The head request's completion cycle (FCFS push order makes the head
     * the channel's next event). Only call when !empty().
     */
    Cycle headReadyAt() const { return queue_.front().readyAt; }

    /** Pop the head request; only call when headReady(). */
    ReqHandle pop();

    bool empty() const { return queue_.empty(); }
    size_t size() const { return queue_.size(); }

    /** Total requests serviced (bandwidth accounting). */
    uint64_t serviced() const { return serviced_; }

    /** Event sink + owning partition id, installed by the partition. */
    trace::TraceSink *traceSink = nullptr;
    int16_t traceUnit = -1;

  private:
    struct Entry
    {
        ReqHandle req = kNullHandle;
        Cycle readyAt = 0;
    };

    const GpuConfig &config_;
    MemPools &pools_;
    std::deque<Entry> queue_;
    Cycle channelFreeAt_ = 0;
    uint64_t serviced_ = 0;

    /**
     * Open row per bank (row-buffer model); ~0 = no row open. Sized
     * lazily on first push so the default dram_row_bytes=0 path never
     * allocates.
     */
    std::vector<uint64_t> openRow_;
};

} // namespace gcl::sim

#endif // GCL_SIM_DRAM_HH
