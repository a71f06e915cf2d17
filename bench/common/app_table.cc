#include "app_table.hh"

#include <map>

#include "util/table.hh"

namespace gcl::bench
{

void
printAppTable(const AppTable &table,
              const std::vector<const AppResult *> &apps, std::ostream &out,
              const std::string &note)
{
    std::vector<std::string> headers = {"app"};
    if (table.category)
        headers.push_back("category");
    for (const Column &column : table.columns)
        headers.push_back(column.header);
    Table rows(std::move(headers));

    // The values of the finished runs: all an average reads.
    std::vector<Values> suite;
    std::map<std::string, std::vector<Values>> by_category;
    for (const AppResult *app : apps) {
        const bool ok = finished(*app);
        const Values values =
            ok ? table.values(*app) : Values(table.columns.size());
        std::vector<std::string> row = {app->name};
        if (table.category)
            row.push_back(app->category);
        for (size_t c = 0; c < table.columns.size(); ++c)
            row.push_back(values.at(c) ? table.columns[c].format(*values[c])
                                       : "-");
        rows.addRow(std::move(row));
        if (ok) {
            suite.push_back(values);
            by_category[app->category].push_back(values);
        }
    }

    auto print_line = [&](const Summary &summary,
                          const std::vector<Values> &runs) {
        for (const Mean &mean : summary.means) {
            double sum = 0.0;
            int count = 0;
            for (const Values &values : runs)
                if (const std::optional<double> v = values.at(mean.value)) {
                    sum += *v;
                    ++count;
                }
            out << mean.text << (count ? mean.format(sum / count) : "-");
        }
        out << summary.tail << '\n';
    };

    rows.print(out);
    if (!table.summaries.empty())
        out << '\n';
    for (const Summary &summary : table.summaries) {
        if (!summary.byCategory)
            print_line(summary, suite);
        else
            for (const auto &[category, runs] : by_category) {
                out << "category " << category << ' ';
                print_line(summary, runs);
            }
    }
    out << note << "\nCSV:\n";
    rows.printCsv(out);
}

} // namespace gcl::bench
