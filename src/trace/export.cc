#include "export.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

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
exportStatsFile(const std::vector<StatsRecord> &records, std::ostream &out)
{
    out << "{\n\"apps\": [";
    bool first = true;
    for (const StatsRecord &rec : records) {
        char fp[32];
        std::snprintf(fp, sizeof(fp), "%016" PRIx64, rec.fingerprint);
        out << (first ? "\n" : ",\n") << "{\"name\": " << jsonQuote(rec.name)
            << ", \"category\": " << jsonQuote(rec.category)
            << ", \"machine\": " << jsonQuote(rec.machine)
            << ", \"verified\": " << (rec.verified ? "true" : "false")
            << ", \"fingerprint\": \"" << fp << "\"";
        if (rec.failure.failed) {
            out << ", \"failure\": {\"kind\": "
                << jsonQuote(rec.failure.kind)
                << ", \"component\": " << jsonQuote(rec.failure.component)
                << ", \"cycle\": " << rec.failure.cycle
                << ", \"message\": " << jsonQuote(rec.failure.message);
            if (!rec.failure.detail.empty())
                out << ", \"detail\": " << jsonQuote(rec.failure.detail);
            out << "}";
        }
        out << ", \"stats\": ";
        exportStatsJson(rec.stats, out);
        out << "}";
        first = false;
    }
    out << "\n]\n}\n";
}

bool
importStatsFile(const JsonValue &root, std::vector<StatsRecord> &records,
                std::string *error)
{
    std::string why;
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    // An optional string member: absent leaves @p out as it is.
    auto text = [&](const JsonValue &obj, const char *key, std::string &out) {
        if (!obj.has(key))
            return true;
        if (!obj[key].isString()) {
            why = std::string("\"") + key + "\" is not a string";
            return false;
        }
        out = obj[key].string;
        return true;
    };

    if (!root.isObject() || !root["apps"].isArray())
        return fail("missing top-level \"apps\" array");
    records.clear();
    for (const JsonValue &app : root["apps"].array) {
        if (!app["name"].isString())
            return fail("app record without a name");
        StatsRecord rec;
        rec.name = app["name"].string;
        const std::string where = "app '" + rec.name + "'";
        if (!app["stats"].isObject())
            return fail(where + " has no stats");
        if (!text(app, "category", rec.category) ||
            !text(app, "machine", rec.machine))
            return fail(where + ": " + why);
        if (app.has("verified")) {
            if (!app["verified"].isBool())
                return fail(where + ": \"verified\" is not a boolean");
            rec.verified = app["verified"].boolean;
        }
        if (app.has("fingerprint")) {
            const JsonValue &fp = app["fingerprint"];
            if (!fp.isString() || fp.string.size() != 16 ||
                fp.string.find_first_not_of("0123456789abcdef") !=
                    std::string::npos)
                return fail(where + ": \"fingerprint\" is not 16 hex digits");
            rec.fingerprint = std::strtoull(fp.string.c_str(), nullptr, 16);
        }
        if (app.has("failure")) {
            const JsonValue &f = app["failure"];
            const double cycle = f["cycle"].number;
            if (!f["cycle"].isNumber() || cycle < 0 || cycle >= 0x1p64 ||
                cycle != std::floor(cycle))
                return fail(where + ": \"failure\" has no cycle count");
            rec.failure.failed = true;
            rec.failure.cycle = static_cast<uint64_t>(cycle);
            if (!text(f, "kind", rec.failure.kind) ||
                !text(f, "component", rec.failure.component) ||
                !text(f, "message", rec.failure.message) ||
                !text(f, "detail", rec.failure.detail))
                return fail(where + ": failure " + why);
        }
        if (!importStatsJson(app["stats"], rec.stats, &why))
            return fail(where + ": " + why);
        records.push_back(std::move(rec));
    }
    return true;
}

bool
readStatsFile(const std::string &path, std::vector<StatsRecord> &records,
              std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open stats '" + path + "'";
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    JsonValue root;
    std::string why;
    if (parseJson(buf.str(), root, &why) &&
        importStatsFile(root, records, &why))
        return true;
    if (error)
        *error = path + ": " + why;
    return false;
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
