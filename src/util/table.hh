/**
 * @file
 * Aligned console table and CSV emission for the benchmark harness.
 *
 * Every figure/table bench prints two artifacts: a human-readable aligned
 * table (the "paper view") and a machine-readable CSV block so results can be
 * re-plotted. Both are produced by this one writer to keep them consistent.
 */

#ifndef GCL_UTIL_TABLE_HH
#define GCL_UTIL_TABLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace gcl
{

/**
 * RFC 4180 field quoting: @p field unchanged when it holds no comma,
 * quote, CR or LF; otherwise wrapped in double quotes with inner quotes
 * doubled. Every CSV writer in the tree quotes its fields through this,
 * so keys with punctuation (e.g. crit.pc.<kernel>#<pc>) and free-form
 * text (failure messages, kernel names) can never break a row.
 */
std::string csvField(const std::string &field);

/** A simple column-aligned text table with an optional CSV rendering. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row of pre-formatted cells; must match the header width. */
    void addRow(std::vector<std::string> cells);

    /** Format helpers for numeric cells. */
    static std::string fmt(double v, int precision = 3);
    static std::string fmtInt(uint64_t v);
    static std::string fmtPct(double fraction, int precision = 2);

    /** Render with aligned columns and a header rule. */
    void print(std::ostream &os) const;

    /** Render as CSV (headers + rows), each cell through csvField(). */
    void printCsv(std::ostream &os) const;

    size_t numRows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace gcl

#endif // GCL_UTIL_TABLE_HH
