#include "table.hh"

#include <algorithm>
#include <cstdio>

#include "logging.hh"

namespace gcl
{

std::string
csvField(const std::string &field)
{
    if (field.find_first_of(",\"\r\n") == std::string::npos)
        return field;
    std::string quoted;
    quoted.reserve(field.size() + 2);
    quoted += '"';
    for (char c : field) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    gcl_assert(!headers_.empty(), "a table needs at least one column");
}

void
Table::addRow(std::vector<std::string> cells)
{
    gcl_assert(cells.size() == headers_.size(),
               "row width ", cells.size(), " != header width ",
               headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
Table::fmtInt(uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
Table::fmtPct(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
    return buf;
}

void
Table::print(std::ostream &os) const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "" : "  ");
            os << row[c];
            for (size_t pad = row[c].size(); pad < widths[c]; ++pad)
                os << ' ';
        }
        os << '\n';
    };

    emit_row(headers_);
    size_t total = 0;
    for (size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c == 0 ? 0 : 2);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows_)
        emit_row(row);
}

void
Table::printCsv(std::ostream &os) const
{
    auto emit_row = [&](const std::vector<std::string> &row) {
        for (size_t c = 0; c < row.size(); ++c)
            os << (c ? "," : "") << csvField(row[c]);
        os << '\n';
    };
    emit_row(headers_);
    for (const auto &row : rows_)
        emit_row(row);
}

} // namespace gcl
