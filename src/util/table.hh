/**
 * @file
 * Aligned-column table printer for the benchmark harness.
 *
 * Every bench binary prints the rows/series the corresponding paper table
 * or figure reports; Table renders them readably on stdout and can also
 * emit CSV for plotting.
 */

#ifndef EARTHPLUS_UTIL_TABLE_HH
#define EARTHPLUS_UTIL_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace earthplus {

/**
 * Accumulates rows of strings and prints them with aligned columns.
 */
class Table
{
  public:
    /** @param title Heading printed above the table. */
    explicit Table(std::string title);

    /** Set the column headers. */
    void setHeader(std::vector<std::string> header);

    /** Append one row (cells may be fewer than headers; padded empty). */
    void addRow(std::vector<std::string> row);

    /** Convenience: format a double with the given precision. */
    static std::string num(double v, int precision = 2);

    /** Convenience: format a percentage (0.153 -> "15.3%"). */
    static std::string pct(double fraction, int precision = 1);

    /** Render with aligned columns to the stream. */
    void print(std::ostream &os) const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace earthplus

#endif // EARTHPLUS_UTIL_TABLE_HH
