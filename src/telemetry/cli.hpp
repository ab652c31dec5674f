/**
 * @file
 * The one strict number parser behind every command-line flag.
 *
 * atoi()/strtol() read "--hosts banana" as 0 and "--hosts 5x" as 5, and a
 * cast of an out-of-range value to int is undefined. Here the whole token
 * must parse, be finite and fall inside the flag's documented range;
 * anything else is refused with the tool's usage and exit 2 before the
 * tool acts on it.
 */

#ifndef VPM_TELEMETRY_CLI_HPP
#define VPM_TELEMETRY_CLI_HPP

#include <climits>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <utility>

namespace vpm::cli {

/**
 * Upper bound of every --threads flag. Each worker is an OS thread and
 * no run in this repo uses more than 64 (the fleet-day benchmark's
 * limit); a larger value is a typo, refused before any pool is built.
 */
inline constexpr long long kMaxThreads = 64;

/** @p text as a whole-token base-10 integer in [@p min, @p max]. */
std::optional<long long> parseInt(const char *text, long long min,
                                  long long max = LLONG_MAX);

/**
 * One tool's command line, argv[0..argc). Each reader takes @p i at a
 * flag, advances it onto the flag's value and returns that value. A
 * missing value ("<prog>: <flag> needs a value") or a refused one
 * ("<prog>: <flag> wants an integer in [min, max], got '<text>'", or "a
 * number") is printed with the tool's usage on stderr, and exits 2.
 */
class FlagReader
{
  public:
    using Usage = std::function<void(std::FILE *)>;

    FlagReader(std::string prog, Usage usage, int argc, char **argv)
        : prog_(std::move(prog)), usage_(std::move(usage)), argc_(argc),
          argv_(argv)
    {
    }

    const char *value(int &i) const;
    long long integer(int &i, long long min, long long max = INT_MAX) const;
    double number(int &i, double min, double max = HUGE_VAL) const;

    /** @name Positional operands
     *  argv[@p i] itself, refused like a flag value ("<prog>: operand
     *  <i> wants ..."). */
    ///@{
    long long operandInteger(int i, long long min,
                             long long max = INT_MAX) const;
    double operandNumber(int i, double min, double max = HUGE_VAL) const;
    ///@}

    /** Print "<prog>: @p message" and the usage on stderr; exit 2. */
    [[noreturn]] void refuse(const std::string &message) const;

  private:
    long long checkedInteger(const std::string &what, const char *text,
                             long long min, long long max) const;
    double checkedNumber(const std::string &what, const char *text,
                         double min, double max) const;

    std::string prog_;
    Usage usage_;
    int argc_;
    char **argv_;
};

} // namespace vpm::cli

#endif // VPM_TELEMETRY_CLI_HPP
