/**
 * @file
 * The two metric writers, and the field-table rows both layers render
 * through.
 *
 * Each layer lists its metrics once, in the field tables of
 * engine/metrics.cc and serve/metrics.cc: a row names the live atomic,
 * the snapshot field, the /vars JSON key and group, and the OpenMetrics
 * family and type. snapshot(), toJson() and the OpenMetrics renders are
 * walks of those tables through the two writers here: JsonWriter (also
 * used for the trace dumps) and openmetrics::Writer.
 *
 * Strings and label values come out as printable ASCII: every byte
 * outside 0x20-0x7E, and `%` itself, is written `%XX`, then `"` and `\`
 * are backslash-escaped. So any client id is one distinct, valid label
 * in both documents.
 */

#ifndef GMX_ENGINE_EXPORTER_HH
#define GMX_ENGINE_EXPORTER_HH

#include <array>
#include <atomic>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "engine/metrics.hh"

namespace gmx::engine {

/**
 * Render @p snap as an OpenMetrics text block (ends with "# EOF\n").
 * Metric names are prefixed "gmx_"; latency histograms are emitted in
 * seconds, converted from the snapshot's log2-microsecond buckets.
 */
std::string renderOpenMetrics(const MetricsSnapshot &snap);

/** Streaming JSON writer: it places the commas, the caller the shape. */
class JsonWriter
{
  public:
    JsonWriter &beginObject() { return item("{", false); }
    JsonWriter &endObject() { return end("}"); }
    JsonWriter &beginArray() { return item("[", false); }
    JsonWriter &endArray() { return end("]"); }
    JsonWriter &key(std::string_view k) { return item(quote(k) + ':', false); }
    JsonWriter &string(std::string_view s) { return item(quote(s), true); }
    JsonWriter &number(std::string_view text) { return item(text, true); }

    /** Integers print exactly, doubles as iostream does (`%g`). */
    template <class T>
    JsonWriter &
    value(T v)
    {
        if constexpr (std::is_same_v<T, bool>)
            return number(v ? "true" : "false");
        else if constexpr (std::is_floating_point_v<T>)
            return number(formatDouble(static_cast<double>(v)));
        else
            return number(std::to_string(v));
    }

    const std::string &str() const { return out_; }

  private:
    /** Append @p text, after a comma if one is due. */
    JsonWriter &item(std::string_view text, bool comma_after);
    JsonWriter &end(std::string_view text)
    {
        comma_ = false;
        return item(text, true);
    }
    static std::string quote(std::string_view s);
    static std::string formatDouble(double v);

    std::string out_;
    bool comma_ = false;
};

namespace openmetrics {

enum class Type { Counter, Gauge, Histogram };

/** `%.9g` decimal for a double ("0.001", "1.5e-05"). */
std::string num(double v);

/** OpenMetrics text, family blocks in call order, no `# EOF` trailer. */
class Writer
{
  public:
    /** `# TYPE <name> <type>`; the family's samples follow. */
    Writer &family(const char *name, Type type);

    /**
     * One sample of the open family (`_total` for a counter), labelled
     * `{label="value"}` when @p label is set. Integers print exactly,
     * doubles through num().
     */
    template <class T>
    Writer &
    sample(T v, const char *label = nullptr, std::string_view value = {})
    {
        std::string text;
        if constexpr (std::is_floating_point_v<T>)
            text = num(static_cast<double>(v));
        else
            text = std::to_string(v);
        line(type_ == Type::Counter ? "_total" : "", label, value, nullptr,
             text);
        return *this;
    }

    /**
     * One series of the open histogram family, in seconds: cumulative
     * `le` buckets (trailing empty ones elided, `+Inf` always), `_sum`,
     * `_count`.
     */
    Writer &histogram(const LatencySummary &s, const char *label = nullptr,
                      std::string_view value = {});

    const std::string &str() const { return out_; }

  private:
    /** `<family><suffix>[{label="value"[,le="le"]}] <text>`. */
    void line(const char *suffix, const char *label, std::string_view value,
              const char *le, const std::string &text);

    std::string out_;
    const char *name_ = "";
    Type type_ = Type::Gauge;
};

} // namespace openmetrics

/** The labels of a slot array (per priority, per lane count). */
struct SlotLabel
{
    const char *name;                 //!< OpenMetrics label name
    std::string (*value)(unsigned i); //!< label value of slot i
    bool json_object;                 //!< /vars {"value":n,...}, else [n,...]
};

/**
 * One row of a layer's field table. A scalar row copies @p live into
 * @p snap, or, with no @p live, the snapshot() argument @p arg. A slot
 * row sets @p label, @p slots and @p live_slots instead; a derived row
 * only @p derived. On /metrics a scalar gauge prints through num(), all
 * other row values as integers.
 */
template <class Live, class Snap, size_t N>
struct Field
{
    const char *group;  //!< /vars object the key nests in; null = top level
    const char *key;    //!< /vars key
    const char *family; //!< OpenMetrics family
    openmetrics::Type type;
    u64 Snap::*snap = nullptr;
    std::atomic<u64> Live::*live = nullptr;
    int arg = -1;
    const SlotLabel *label = nullptr;
    std::array<u64, N> Snap::*slots = nullptr;
    std::array<std::atomic<u64>, N> Live::*live_slots = nullptr;
    double (Snap::*derived)() const = nullptr;
};

template <class Table, class Live, class Snap>
void
copyFields(const Table &table, const Live &live, Snap &snap,
           std::span<const u64> args = {})
{
    for (const auto &f : table) {
        if (f.live)
            snap.*f.snap = (live.*f.live).load(std::memory_order_relaxed);
        else if (f.snap)
            snap.*f.snap = args[static_cast<size_t>(f.arg)];
        for (size_t i = 0; f.slots && i < (snap.*f.slots).size(); ++i)
            (snap.*f.slots)[i] =
                (live.*f.live_slots)[i].load(std::memory_order_relaxed);
    }
}

/** One key per row; consecutive rows of a group share its object. */
template <class Table, class Snap>
void
writeFields(JsonWriter &w, const Table &table, const Snap &snap)
{
    const char *open = nullptr;
    for (const auto &f : table) {
        if (f.group != open &&
            !(f.group && open && std::strcmp(f.group, open) == 0)) {
            if (open)
                w.endObject();
            if (f.group)
                w.key(f.group).beginObject();
            open = f.group;
        }
        w.key(f.key);
        if (f.derived) {
            w.number(openmetrics::num((snap.*f.derived)()));
        } else if (f.label) {
            f.label->json_object ? w.beginObject() : w.beginArray();
            for (unsigned i = 0; i < (snap.*f.slots).size(); ++i) {
                if (f.label->json_object)
                    w.key(f.label->value(i));
                w.value((snap.*f.slots)[i]);
            }
            f.label->json_object ? w.endObject() : w.endArray();
        } else {
            w.value(snap.*f.snap);
        }
    }
    if (open)
        w.endObject();
}

/** One family per row, in table order. */
template <class Table, class Snap>
void
writeFields(openmetrics::Writer &w, const Table &table, const Snap &snap)
{
    for (const auto &f : table) {
        w.family(f.family, f.type);
        if (f.derived)
            w.sample((snap.*f.derived)());
        else if (f.label)
            for (unsigned i = 0; i < (snap.*f.slots).size(); ++i)
                w.sample((snap.*f.slots)[i], f.label->name,
                         f.label->value(i));
        else if (f.type == openmetrics::Type::Gauge)
            w.sample(static_cast<double>(snap.*f.snap));
        else
            w.sample(snap.*f.snap);
    }
}

/** A column of a row list (shards, clients); null family = /vars only. */
template <class Row>
struct RowField
{
    const char *key;
    const char *family;
    openmetrics::Type type;
    u64 Row::*field;
};

/** One labelled family per column, one sample per row. */
template <class Table, class Row>
void
writeRows(openmetrics::Writer &w, const Table &table,
          const std::vector<Row> &rows, const char *label, auto label_of)
{
    for (const auto &f : table) {
        if (!f.family)
            continue;
        w.family(f.family, f.type);
        for (size_t i = 0; i < rows.size(); ++i)
            w.sample(rows[i].*f.field, label, label_of(i));
    }
}

} // namespace gmx::engine

#endif // GMX_ENGINE_EXPORTER_HH
