#include "engine/exporter.hh"

#include <cstdio>

namespace gmx::engine {

namespace {

/**
 * Append @p s as printable ASCII: bytes outside 0x20-0x7E and `%` as
 * `%XX`, then `"` and `\` backslash-escaped, which JSON and OpenMetrics
 * spell alike.
 */
void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789ABCDEF";
    for (const char c : s) {
        const auto b = static_cast<unsigned char>(c);
        if (b < 0x20 || b > 0x7e || b == '%') {
            out += '%';
            out += kHex[b >> 4];
            out += kHex[b & 0xf];
            continue;
        }
        if (b == '"' || b == '\\')
            out += '\\';
        out += c;
    }
}

} // namespace

JsonWriter &
JsonWriter::item(std::string_view text, bool comma_after)
{
    if (comma_)
        out_ += ',';
    out_ += text;
    comma_ = comma_after;
    return *this;
}

std::string
JsonWriter::quote(std::string_view s)
{
    std::string out = "\"";
    appendEscaped(out, s);
    return out + '"';
}

std::string
JsonWriter::formatDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

namespace openmetrics {

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

Writer &
Writer::family(const char *name, Type type)
{
    static constexpr const char *kTypeName[] = {"counter", "gauge",
                                                "histogram"};
    name_ = name;
    type_ = type;
    out_.append("# TYPE ").append(name).append(" ")
        .append(kTypeName[static_cast<int>(type)]).append("\n");
    return *this;
}

void
Writer::line(const char *suffix, const char *label, std::string_view value,
             const char *le, const std::string &text)
{
    out_.append(name_).append(suffix);
    if (label || le) {
        out_ += '{';
        if (label) {
            out_.append(label).append("=\"");
            appendEscaped(out_, value);
            out_ += le ? "\"," : "\"";
        }
        if (le)
            out_.append("le=\"").append(le).append("\"");
        out_ += '}';
    }
    out_.append(" ").append(text).append("\n");
}

Writer &
Writer::histogram(const LatencySummary &s, const char *label,
                  std::string_view value)
{
    size_t last = s.buckets.size();
    while (last > 0 && s.buckets[last - 1] == 0)
        --last;
    u64 cum = 0;
    for (size_t b = 0; b < last; ++b) {
        cum += s.buckets[b];
        // The edges are latencyBucketUpperUs, as for the snapshot's
        // quantiles, so a scraped `le` never drifts from a reported p99.
        line("_bucket", label, value,
             num(latencyBucketUpperUs(b) * 1e-6).c_str(),
             std::to_string(cum));
    }
    line("_bucket", label, value, "+Inf", std::to_string(s.count));
    line("_sum", label, value, nullptr, num(s.sum_us * 1e-6));
    line("_count", label, value, nullptr, std::to_string(s.count));
    return *this;
}

} // namespace openmetrics

} // namespace gmx::engine
