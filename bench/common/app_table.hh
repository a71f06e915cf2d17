/**
 * @file
 * The per-application paper tables as data: columns, the values one run
 * gives them, and summary lines of means. The renderer alone decides which
 * apps a mean covers: the finished runs among the apps it printed whose
 * value exists. A failed or skipped run prints `-` in every value cell.
 */

#ifndef GCL_BENCH_COMMON_APP_TABLE_HH
#define GCL_BENCH_COMMON_APP_TABLE_HH

#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "runner.hh"

namespace gcl::bench
{

/**
 * One run's values: one per column, then any only summaries read. None
 * (printed `-`) where a value is undefined.
 */
using Values = std::vector<std::optional<double>>;

struct Column
{
    std::string header;
    std::string (*format)(double);
};

/** The mean of Values[@p value], printed after @p text. */
struct Mean
{
    std::string text;
    size_t value;
    std::string (*format)(double);
};

/**
 * A line of means, then @p tail; per category: one line per category,
 * after "category <name> ", with means over that category alone.
 */
struct Summary
{
    bool byCategory = false;
    std::vector<Mean> means = {};
    std::string tail = {};
};

/** One row per app, then a blank line and the summary lines, if any. */
struct AppTable
{
    bool category = false; //!< a "category" column after "app"
    std::vector<Column> columns = {};
    std::function<Values(const AppResult &)> values = {};
    std::vector<Summary> summaries = {};
};

/** A run that neither failed nor was skipped. */
inline bool
finished(const AppResult &app)
{
    return !app.failure.failed;
}

/** Print @p table over @p apps, then @p note before the CSV. */
void printAppTable(const AppTable &table,
                   const std::vector<const AppResult *> &apps,
                   std::ostream &out, const std::string &note = {});

} // namespace gcl::bench

#endif // GCL_BENCH_COMMON_APP_TABLE_HH
