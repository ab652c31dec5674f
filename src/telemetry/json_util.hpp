/**
 * @file
 * The one JSON escaper and the one JSON mini-parser shared by every
 * telemetry reader/writer.
 *
 * All three JSON writers (journal/Chrome-trace export, profiler reports,
 * bench reports) used to carry their own escape helpers, and two of them
 * silently replaced control characters with spaces — lossy, and in the
 * profiler's case emitted labels Perfetto could not round-trip. Escaping
 * lives here exactly once: `"` and `\` are backslash-escaped, newline and
 * tab use their two-character forms, and every other control character
 * below 0x20 becomes a \u00xx escape, which is the minimal set RFC 8259
 * requires for valid JSON.
 *
 * The parser started life inside bench_report.cpp; the sweep orchestrator
 * (manifests, vpm-sweep-1 matrices) needed the same machinery, so it was
 * promoted here. It is deliberately minimal: objects, arrays, strings,
 * numbers, bools, null — enough for our own schemas plus unknown-field
 * tolerance, with no allocation tricks and positions in error messages.
 */

#ifndef VPM_TELEMETRY_JSON_UTIL_HPP
#define VPM_TELEMETRY_JSON_UTIL_HPP

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vpm::telemetry {

/** %.17g: the exact, locale-free JSON form of @p v (byte-stable). */
std::string exactNumber(double v);

/** Escaped form of @p s for a JSON string literal (no surrounding quotes). */
std::string jsonEscape(std::string_view s);

/** Stream jsonEscape(s) without building the intermediate string. */
void writeJsonEscaped(std::ostream &out, std::string_view s);

/**
 * A parsed JSON document node. Object member order is preserved
 * (insertion-ordered vector of pairs, not a map) so round-trips keep
 * files diffable.
 */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Member lookup on an object node; nullptr when absent. */
    const JsonValue *find(const std::string &key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
};

/**
 * Parse @p text as one complete JSON document.
 * @return false with @p error set (byte offset included) on malformed
 *         input or trailing garbage.
 */
bool parseJson(const std::string &text, JsonValue &out, std::string *error);

/** @name Typed field access with fallbacks (nullptr-tolerant)
 *  The accessors take the result of JsonValue::find() directly, so
 *  `numberOr(obj.find("x"), 0.0)` reads a field in one line whether or
 *  not it exists or has the right type. */
///@{
double numberOr(const JsonValue *value, double fallback);
std::string stringOr(const JsonValue *value, const std::string &fallback);
bool boolOr(const JsonValue *value, bool fallback);
///@}

/** @name Flat JSONL field scans
 *  For one-object-per-line journals: the value of a top-level
 *  "key":<number> or "key":"string" pair, found by text search without a
 *  full parse (string escapes are undone only as far as the journal's
 *  label vocabulary needs); std::nullopt when absent. */
///@{
std::optional<double> findNumber(const std::string &line,
                                 std::string_view key);
std::optional<std::string> findString(const std::string &line,
                                      std::string_view key);
///@}

/** Largest integer a JSON number (an IEEE double) holds exactly: 2^53. */
inline constexpr std::int64_t kMaxExactInteger = std::int64_t{1} << 53;

/** @name Strict member reads for schema'd inputs (specs, manifests)
 *  Each reads member @p key of object @p obj into @p out. An absent
 *  member leaves @p out as it is; a member of the wrong JSON kind — or,
 *  for integers, a fractional or out-of-range number — returns false
 *  with @p error naming the member, so a typo or a quoted number is a
 *  rejection, never a silent default. */
///@{
bool readMember(const JsonValue &obj, const char *key, std::string &out,
                std::string *error);
bool readMember(const JsonValue &obj, const char *key, double &out,
                std::string *error);
bool readMember(const JsonValue &obj, const char *key, bool &out,
                std::string *error);

template <typename Int>
bool
readInteger(const JsonValue &obj, const char *key, std::int64_t min,
            std::int64_t max, Int &out, std::string *error)
{
    const JsonValue *value = obj.find(key);
    if (value == nullptr)
        return true;
    // A number with no fractional part, in range: never a truncating or
    // overflowing cast.
    if (value->kind != JsonValue::Kind::Number ||
        value->number != std::floor(value->number) ||
        value->number < static_cast<double>(min) ||
        value->number > static_cast<double>(max)) {
        if (error != nullptr)
            *error = std::string("'") + key + "' must be an integer in [" +
                     std::to_string(min) + ", " + std::to_string(max) + "]";
        return false;
    }
    out = static_cast<Int>(value->number);
    return true;
}

/** False with @p error naming the first member of @p obj whose key is
 *  not in @p known. */
bool rejectUnknownMembers(const JsonValue &obj,
                          std::initializer_list<std::string_view> known,
                          std::string *error);
///@}

} // namespace vpm::telemetry

#endif // VPM_TELEMETRY_JSON_UTIL_HPP
