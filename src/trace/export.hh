/**
 * @file
 * Machine-readable exporters for the simulator's StatsSet, plus a
 * validator for the Chrome-JSON traces — the offline half of gcl::trace.
 *
 * JSON schema for one stats set:
 *   {
 *     "scalars":    { "<key>": <number>, ... },
 *     "histograms": { "<key>": { "buckets": { "<int key>": <weight> },
 *                                "total_weight": <number>,
 *                                "mean": <number> }, ... }
 *   }
 *
 * A --stats-json file holds one record per run:
 *   { "apps": [ { "name": "<app>", "category": "<category>",
 *                 "machine": "<machine>", "verified": <bool>,
 *                 "fingerprint": "<16 hex digits>",
 *                 "failure": { "kind": ..., "component": ...,
 *                              "cycle": <n>, "message": ...,
 *                              "detail": ... },   (failed runs only)
 *                 "stats": <one stats set> }, ... ] }
 *
 * CSV schema (one flat table for scalars and histogram buckets alike):
 *   kind,key,bucket,value
 *   scalar,cycles,,123
 *   hist,cta_distance,1,42
 */

#ifndef GCL_TRACE_EXPORT_HH
#define GCL_TRACE_EXPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "guard/sim_error.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace gcl::trace
{

/** Serialize @p stats as a JSON object (schema above). */
void exportStatsJson(const StatsSet &stats, std::ostream &out);

class JsonValue;

/**
 * Parse JSON produced by exportStatsJson() back into @p stats.
 * @retval true on success (round-trip tested against finalize() keys)
 */
bool importStatsJson(const std::string &text, StatsSet &stats,
                     std::string *error = nullptr);

/**
 * The same from a parsed stats object, such as the "stats" member of one
 * app record of a --stats-json file: the one JSON-to-StatsSet importer.
 */
bool importStatsJson(const JsonValue &root, StatsSet &stats,
                     std::string *error = nullptr);

/** One run's record in a --stats-json file. */
struct StatsRecord
{
    std::string name;
    std::string category;
    std::string machine;
    bool verified = false;
    uint64_t fingerprint = 0; //!< config fingerprint
    StatsSet stats;
    SimFailure failure;       //!< failed=false on a clean run
};

/** Serialize @p records as a --stats-json file (schema above). */
void exportStatsFile(const std::vector<StatsRecord> &records,
                     std::ostream &out);

/**
 * Read a parsed --stats-json file into @p records: the one reader of
 * that layout. Each record needs a name and a stats set; the other
 * fields may be absent but must have their type when present.
 */
bool importStatsFile(const JsonValue &root, std::vector<StatsRecord> &records,
                     std::string *error = nullptr);

/** Open, parse and read the --stats-json file at @p path. */
bool readStatsFile(const std::string &path, std::vector<StatsRecord> &records,
                   std::string *error = nullptr);

/** Serialize @p stats as a flat CSV table (schema above). */
void exportStatsCsv(const StatsSet &stats, std::ostream &out);

/** The one CSV field quoting rule (util/table.hh). */
using gcl::csvField;

/** Result of validating a Chrome trace-event JSON file. */
struct TraceValidation
{
    bool ok = false;
    std::string error;          //!< first problem found (when !ok)
    size_t events = 0;          //!< total trace events
    size_t asyncBegins = 0;     //!< "b" events
    size_t asyncEnds = 0;       //!< "e" events
    size_t counters = 0;        //!< "C" events
    size_t instants = 0;        //!< "i" events
    size_t unmatchedAsyncs = 0; //!< "b" without a matching "e" (id+cat)
};

/**
 * Parse @p text as a Chrome trace-event JSON array and check structural
 * invariants: every event has a "ph"; ts/pid present on non-metadata
 * events; async begin/end events pair up by (cat, id, name).
 */
TraceValidation validateChromeTrace(const std::string &text);

} // namespace gcl::trace

#endif // GCL_TRACE_EXPORT_HH
