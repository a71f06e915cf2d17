#include "export.hh"

#include <cinttypes>
#include <cstdlib>
#include <map>
#include <ostream>

#include "json.hh"

namespace gcl::trace
{

void
exportStatsJson(const StatsSet &stats, std::ostream &out)
{
    out << "{\n  \"scalars\": {";
    bool first = true;
    for (const auto &[key, value] : stats.scalars()) {
        out << (first ? "\n" : ",\n") << "    " << jsonQuote(key) << ": "
            << jsonNumber(value);
        first = false;
    }
    out << "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto &[key, hist] : stats.hists()) {
        out << (first ? "\n" : ",\n") << "    " << jsonQuote(key)
            << ": {\"buckets\": {";
        bool first_bucket = true;
        for (const auto &[bucket, weight] : hist.buckets()) {
            out << (first_bucket ? "" : ", ")
                << jsonQuote(std::to_string(bucket)) << ": "
                << jsonNumber(weight);
            first_bucket = false;
        }
        out << "}, \"total_weight\": " << jsonNumber(hist.totalWeight())
            << ", \"mean\": " << jsonNumber(hist.mean()) << "}";
        first = false;
    }
    out << "\n  }\n}\n";
}

bool
importStatsJson(const std::string &text, StatsSet &stats, std::string *error)
{
    JsonValue root;
    return parseJson(text, root, error) &&
           importStatsJson(root, stats, error);
}

bool
importStatsJson(const JsonValue &root, StatsSet &stats, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    if (!root.isObject())
        return fail("stats JSON root is not an object");
    const JsonValue &scalars = root["scalars"];
    const JsonValue &hists = root["histograms"];
    if (!scalars.isObject() || !hists.isObject())
        return fail("missing 'scalars' or 'histograms' object");

    stats.clear();
    for (const auto &[key, value] : scalars.object) {
        if (!value.isNumber())
            return fail("scalar '" + key + "' is not a number");
        stats.set(key, value.number);
    }
    for (const auto &[key, hist] : hists.object) {
        const JsonValue &buckets = hist["buckets"];
        if (!buckets.isObject())
            return fail("histogram '" + key + "' has no buckets object");
        Histogram &out_hist = stats.hist(key);
        for (const auto &[bucket, weight] : buckets.object) {
            if (!weight.isNumber())
                return fail("histogram '" + key + "' bucket '" + bucket +
                            "' is not a number");
            char *end = nullptr;
            const long long bucket_key =
                std::strtoll(bucket.c_str(), &end, 10);
            if (end != bucket.c_str() + bucket.size())
                return fail("histogram '" + key + "' bucket '" + bucket +
                            "' is not an integer");
            out_hist.add(bucket_key, weight.number);
        }
    }
    return true;
}

void
exportStatsCsv(const StatsSet &stats, std::ostream &out)
{
    // Values format as round-trippable numbers; keys pass through
    // csvField() so punctuation in stat names can never break a row.
    out << "kind,key,bucket,value\n";
    for (const auto &[key, value] : stats.scalars())
        out << "scalar," << csvField(key) << ",," << jsonNumber(value)
            << "\n";
    for (const auto &[key, hist] : stats.hists())
        for (const auto &[bucket, weight] : hist.buckets())
            out << "hist," << csvField(key) << "," << bucket << ","
                << jsonNumber(weight) << "\n";
}

TraceValidation
validateChromeTrace(const std::string &text)
{
    TraceValidation v;
    JsonValue root;
    if (!parseJson(text, root, &v.error))
        return v;
    if (!root.isArray()) {
        v.error = "trace root is not an array";
        return v;
    }

    // Open async slices by (cat, id, name) -> balance.
    std::map<std::string, long> open;
    for (const JsonValue &ev : root.array) {
        if (!ev.isObject()) {
            v.error = "trace element is not an object";
            return v;
        }
        if (!ev["ph"].isString()) {
            v.error = "trace event without 'ph'";
            return v;
        }
        const std::string &ph = ev["ph"].string;
        ++v.events;
        if (ph == "M")
            continue;  // metadata carries no timestamp
        if (!ev["ts"].isNumber() || !ev["pid"].isNumber()) {
            v.error = "event (ph=" + ph + ") missing ts/pid";
            return v;
        }
        if (ph == "C") {
            ++v.counters;
            if (!ev["args"]["value"].isNumber()) {
                v.error = "counter event without args.value";
                return v;
            }
            continue;
        }
        if (ph == "i") {
            ++v.instants;
            continue;
        }
        if (ph == "b" || ph == "e") {
            if (!ev["id"].isString() || !ev["name"].isString()) {
                v.error = "async event without id/name";
                return v;
            }
            const std::string key = ev["cat"].string + "/" +
                                    ev["id"].string + "/" +
                                    ev["name"].string;
            if (ph == "b") {
                ++v.asyncBegins;
                ++open[key];
            } else {
                ++v.asyncEnds;
                if (--open[key] < 0) {
                    v.error = "async end without begin: " + key;
                    return v;
                }
            }
            continue;
        }
        v.error = "unexpected ph '" + ph + "'";
        return v;
    }

    for (const auto &[key, balance] : open)
        if (balance > 0)
            v.unmatchedAsyncs += static_cast<size_t>(balance);
    v.ok = true;
    return v;
}

} // namespace gcl::trace
