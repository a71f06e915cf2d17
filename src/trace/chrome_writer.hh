/**
 * @file
 * Streaming Chrome trace-event JSON exporter (Perfetto-loadable).
 *
 * Attach ChromeTraceWriter::drain() to a TraceSink and the buffered
 * TraceEvents are converted incrementally — the writer never holds more
 * than the per-request pairing state (one small record per in-flight
 * request), so arbitrarily long runs stream to disk in bounded memory.
 *
 * Mapping (ts is the simulated cycle, displayed as 1 cycle = 1 us):
 *  - global-load warp ops     -> async slices ("b"/"e", cat "gload"),
 *    named by their det/nondet class, keyed by op id
 *  - request lifecycles       -> async stage slices (cat "req"): l1_data,
 *    l1_merge_wait, l1_to_icnt, icnt_req, rop, l2_hit, l2_merge_wait,
 *    dram, resp_queue, icnt_resp — paired from consecutive lifecycle
 *    events of the same request id
 *  - reservation fails        -> thread-scoped instants (cat "l1fail"
 *    or "l2fail", named by the failing resource)
 *  - coalescer summaries      -> instants (cat "coalesce")
 *  - timeline samples         -> counter tracks ("C")
 */

#ifndef GCL_TRACE_CHROME_WRITER_HH
#define GCL_TRACE_CHROME_WRITER_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_map>

#include "trace.hh"

namespace gcl::trace
{

/** Converts TraceEvents to Chrome trace-event JSON on the fly. */
class ChromeTraceWriter
{
  public:
    /** Starts the JSON array on @p out (which must outlive the writer). */
    explicit ChromeTraceWriter(std::ostream &out);

    /**
     * Fragment mode (@p fragment true): write *bare* comma-separated
     * event objects with no surrounding JSON array, for later inclusion
     * in another writer's stream via appendFragment(). The bench runner
     * gives every traced run a fragment writer on its own spill file and
     * splices the files into the real trace in declaration order.
     */
    ChromeTraceWriter(std::ostream &out, bool fragment);

    ~ChromeTraceWriter();

    ChromeTraceWriter(const ChromeTraceWriter &) = delete;
    ChromeTraceWriter &operator=(const ChromeTraceWriter &) = delete;

    /**
     * Scope subsequent events under Chrome process @p pid, labeled
     * @p name (the runner calls this once per traced application). A
     * non-empty @p label additionally emits a process_labels metadata
     * event — the runner uses it to stamp the machine name on every
     * traced run.
     */
    void beginProcess(int pid, const std::string &name,
                      const std::string &label = {});

    /** Convert and write a batch of events (TraceSink drain signature). */
    void consume(const TraceEvent *events, size_t n);

    /** A drain callback bound to this writer. */
    TraceSink::DrainFn
    drain()
    {
        return [this](const TraceEvent *events, size_t n) {
            consume(events, n);
        };
    }

    /** Close the JSON array; no further writes allowed. Idempotent. */
    void close();

    /**
     * Copy the body a closed fragment-mode writer produced, read from
     * @p body to its end, into this writer's stream (adding the separating
     * comma if needed). The writer stays usable afterwards; @p events is
     * the fragment's event count.
     */
    void appendFragment(std::istream &body, uint64_t events);

    uint64_t eventsWritten() const { return written_; }

  private:
    /** Last lifecycle point seen for an in-flight request. */
    struct PrevStage
    {
        EventKind kind;
        int outcome;
        uint64_t cycle;
    };

    void writeEvent(const TraceEvent &ev);
    void emitOp(const TraceEvent &ev);
    void emitRequest(const TraceEvent &ev);
    void emitInstant(const TraceEvent &ev, const char *cat,
                     const std::string &name);
    void emitCounter(const TraceEvent &ev);
    void emitAsyncSlice(const char *cat, uint64_t id, const char *name,
                        uint64_t begin, uint64_t end, const TraceEvent &ev);
    void raw(const std::string &json);

    static const char *stageName(const PrevStage &prev, EventKind cur);

    std::ostream &out_;
    std::unordered_map<uint64_t, PrevStage> inflight_;
    uint64_t written_ = 0;
    int pid_ = 0;
    bool first_ = true;
    bool closed_ = false;
    bool fragment_ = false;
};

} // namespace gcl::trace

#endif // GCL_TRACE_CHROME_WRITER_HH
