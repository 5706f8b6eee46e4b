#include "util/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/logging.hh"

namespace earthplus {

Table::Table(std::string title)
    : title_(std::move(title))
{
}

void
Table::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
Table::addRow(std::vector<std::string> row)
{
    rows_.push_back(std::move(row));
}

std::string
Table::num(double v, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << v;
    return oss.str();
}

std::string
Table::pct(double fraction, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision)
        << fraction * 100.0 << "%";
    return oss.str();
}

void
Table::print(std::ostream &os) const
{
    size_t cols = header_.size();
    for (const auto &row : rows_)
        cols = std::max(cols, row.size());

    std::vector<size_t> widths(cols, 0);
    auto widen = [&](const std::vector<std::string> &row) {
        for (size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    widen(header_);
    for (const auto &row : rows_)
        widen(row);

    auto emit = [&](const std::vector<std::string> &row) {
        os << "  ";
        for (size_t i = 0; i < cols; ++i) {
            std::string cell = i < row.size() ? row[i] : "";
            os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
               << cell;
        }
        os << "\n";
    };

    os << "== " << title_ << " ==\n";
    if (!header_.empty()) {
        emit(header_);
        size_t total = 2;
        for (size_t w : widths)
            total += w + 2;
        os << "  " << std::string(total - 2, '-') << "\n";
    }
    for (const auto &row : rows_)
        emit(row);
    os << "\n";
}

} // namespace earthplus
