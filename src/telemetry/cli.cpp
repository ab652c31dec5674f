#include "telemetry/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace vpm::cli {

std::optional<long long>
parseInt(const char *text, long long min, long long max)
{
    char *end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || parsed < min ||
        parsed > max)
        return std::nullopt;
    return parsed;
}

void
FlagReader::refuse(const std::string &message) const
{
    std::fprintf(stderr, "%s: %s\n", prog_.c_str(), message.c_str());
    usage_(stderr);
    std::exit(2);
}

const char *
FlagReader::value(int &i) const
{
    if (i + 1 >= argc_)
        refuse(std::string(argv_[i]) + " needs a value");
    return argv_[++i];
}

long long
FlagReader::checkedInteger(const std::string &what, const char *text,
                           long long min, long long max) const
{
    const std::optional<long long> parsed = parseInt(text, min, max);
    if (!parsed)
        refuse(what + " wants an integer in [" + std::to_string(min) +
               ", " + std::to_string(max) + "], got '" + text + "'");
    return *parsed;
}

double
FlagReader::checkedNumber(const std::string &what, const char *text,
                          double min, double max) const
{
    char *end = nullptr;
    errno = 0;
    const double parsed = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(parsed) || !(parsed >= min) || !(parsed <= max)) {
        char range[64];
        std::snprintf(range, sizeof(range), "[%g, %g]", min, max);
        refuse(what + " wants a number in " + range + ", got '" + text +
               "'");
    }
    return parsed;
}

long long
FlagReader::integer(int &i, long long min, long long max) const
{
    const char *text = value(i);
    return checkedInteger(argv_[i - 1], text, min, max);
}

double
FlagReader::number(int &i, double min, double max) const
{
    const char *text = value(i);
    return checkedNumber(argv_[i - 1], text, min, max);
}

long long
FlagReader::operandInteger(int i, long long min, long long max) const
{
    return checkedInteger("operand " + std::to_string(i), argv_[i], min,
                          max);
}

double
FlagReader::operandNumber(int i, double min, double max) const
{
    return checkedNumber("operand " + std::to_string(i), argv_[i], min,
                         max);
}

} // namespace vpm::cli
