/**
 * @file
 * Plain-text table rendering for the benchmark harness.
 *
 * Every bench binary prints the same rows/series the paper reports;
 * TextTable keeps that output aligned so the artifacts can be diffed
 * against the paper's tables.
 */

#ifndef ZKP_COMMON_TABLE_H
#define ZKP_COMMON_TABLE_H

#include <string>
#include <vector>

namespace zkp {

/** Column-aligned text table. */
class TextTable
{
  public:
    /** Set the header row. */
    void setHeader(std::vector<std::string> cells);

    /** Append a data row. */
    void addRow(std::vector<std::string> cells);

    /** Render the table with aligned columns. */
    std::string render() const;

    /** Number of data rows. */
    std::size_t rows() const { return rows_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p prec digits after the point. */
std::string fmtF(double v, int prec = 2);

/** Format a double as a percentage with @p prec digits. */
std::string fmtPct(double v, int prec = 2);

/** Format a count with thousands separators. */
std::string fmtCount(unsigned long long v);

/** Format a byte rate as GB/s. */
std::string fmtGBps(double bytes_per_sec, int prec = 2);

/** Format seconds adaptively (ns/us/ms/s). */
std::string fmtSeconds(double s);

} // namespace zkp

#endif // ZKP_COMMON_TABLE_H
