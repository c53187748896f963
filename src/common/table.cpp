#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace zkp {

void
TextTable::setHeader(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> widths;
    auto grow = [&](const std::vector<std::string>& row) {
        if (widths.size() < row.size())
            widths.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    grow(header_);
    for (const auto& r : rows_)
        grow(r);

    std::ostringstream out;
    auto emit = [&](const std::vector<std::string>& row) {
        for (std::size_t i = 0; i < widths.size(); ++i) {
            std::string cell = i < row.size() ? row[i] : "";
            out << cell << std::string(widths[i] - cell.size(), ' ');
            if (i + 1 < widths.size())
                out << "  ";
        }
        out << '\n';
    };
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t w : widths)
            total += w;
        total += 2 * (widths.size() - 1);
        out << std::string(total, '-') << '\n';
    }
    for (const auto& r : rows_)
        emit(r);
    return out.str();
}

std::string
fmtF(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

std::string
fmtPct(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", prec, v * 100.0);
    return buf;
}

std::string
fmtCount(unsigned long long v)
{
    std::string raw = std::to_string(v);
    std::string out;
    int count = 0;
    for (std::size_t i = raw.size(); i-- > 0;) {
        out.push_back(raw[i]);
        if (++count % 3 == 0 && i != 0)
            out.push_back(',');
    }
    std::reverse(out.begin(), out.end());
    return out;
}

std::string
fmtGBps(double bytes_per_sec, int prec)
{
    return fmtF(bytes_per_sec / 1e9, prec) + " GB/s";
}

std::string
fmtSeconds(double s)
{
    if (s < 1e-6)
        return fmtF(s * 1e9, 1) + " ns";
    if (s < 1e-3)
        return fmtF(s * 1e6, 2) + " us";
    if (s < 1.0)
        return fmtF(s * 1e3, 2) + " ms";
    return fmtF(s, 3) + " s";
}

} // namespace zkp
